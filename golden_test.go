package swex

// Exhibit golden: every quick exhibit in the registry — the tables,
// figures, and ablations — rendered serially, must match a committed
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

// renderAll renders every registry exhibit in quick mode on the default
// private runner and returns the concatenated reports.
func renderAll(t *testing.T) string {
	t.Helper()
	var out string
	for _, m := range Matrices() {
		text, _, err := m.Render(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		out += "== " + m.Name + "\n" + text + "\n"
	}
	return out
}

var update = flag.Bool("update", false, "rewrite the quick exhibit golden")

// TestQuickExhibitsGolden renders every exhibit in quick mode on the
// default private runner and compares the concatenated reports with
// testdata/quick_exhibits.golden. Regenerate with -update only after an
// intentional change to an exhibit.
func TestQuickExhibitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick matrix; skipped in -short")
	}
	got := []byte(renderAll(t))
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
