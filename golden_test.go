package swex

// Exhibit golden: every quick exhibit — the sweep-backed tables and
// figures plus the ablations — rendered serially, must match a committed
// fixture byte for byte. Any change to simulated behaviour, event ordering
// or report formatting shows up here as a diff against a fixed commit,
// which makes refactors of the simulator mechanically safe.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick exhibit golden")

// goldenAblations are the ablation exhibits cmd/swex renders after the
// sweep-backed matrices, in its order.
var goldenAblations = []struct {
	name string
	fn   func(Options) ([]AblationRow, error)
}{
	{"ablate-localbit", AblateLocalBit},
	{"ablate-software", AblateSoftware},
	{"ablate-broadcast", AblateBroadcast},
	{"ablate-batch", AblateBatchReads},
	{"ablate-parinv", AblateParallelInv},
	{"ablate-dataspec", AblateDataSpecific},
	{"ablate-migratory", AblateMigratory},
	{"ablate-assoc", AblateAssociativity},
	{"ablate-cico", AblateCICO},
	{"ablate-mthread", AblateMultithreading},
}

// TestQuickExhibitsGolden renders every exhibit in quick mode on the
// default private runner and compares the concatenated reports with
// testdata/quick_exhibits.golden. Regenerate with -update only after an
// intentional change to an exhibit.
func TestQuickExhibitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick matrix; skipped in -short")
	}
	out := renderAll(t, nil)
	for _, a := range goldenAblations {
		rows, err := a.fn(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		out += "== " + a.name + "\n" + AblationTable(a.name, rows).String() + "\n"
	}
	got := []byte(out)
	path := filepath.Join("testdata", "quick_exhibits.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exhibits drifted from golden %s (%d vs %d bytes); run with -update if intentional",
			path, len(got), len(want))
	}
}
