package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"swex/internal/lint"
)

// TestCallGraphReachability pins the edge cases of the CHA builder on the
// hotalloc fixture: interface dispatch reaches every implementation,
// method values and escaped closures reach their bodies through the
// indirect-call matching, and functions nothing hot can reach stay cold.
func TestCallGraphReachability(t *testing.T) {
	pkg := loadHotallocFixture(t)
	g := lint.BuildCallGraph(hotallocConfig(), []*lint.Package{pkg})

	if roots := g.Roots(); !slices.Equal(roots, []string{"fixture/hotalloc.Root"}) {
		t.Fatalf("Roots() = %v, want exactly the annotated Root", roots)
	}

	hot := g.HotFunctions()
	wantHot := []string{
		"fixture/hotalloc.(*flusher).flush",   // method value taken in cold code
		"fixture/hotalloc.(*hotImpl).handle",  // interface dispatch, impl 1
		"fixture/hotalloc.(otherImpl).handle", // interface dispatch, impl 2
		"fixture/hotalloc.Root",
		"fixture/hotalloc.helper", // static call from a hot function
		"fixture/hotalloc.tagOf",
	}
	for _, w := range wantHot {
		if !slices.Contains(hot, w) {
			t.Errorf("HotFunctions() missing %s (got %v)", w, hot)
		}
	}
	for _, cold := range []string{
		"fixture/hotalloc.unreachable", // never called from hot code
		"fixture/hotalloc.register",    // only its closure escapes, not it
		"fixture/hotalloc.holdMethod",  // takes a method value, cold itself
	} {
		if slices.Contains(hot, cold) {
			t.Errorf("HotFunctions() wrongly includes %s", cold)
		}
	}
}

// TestHotAllocSiteKeys pins the churn-resistant key scheme: closures
// report under their lexically enclosing declaration, and keys carry no
// line numbers.
func TestHotAllocSiteKeys(t *testing.T) {
	pkg := loadHotallocFixture(t)
	sites := lint.HotAllocSites(hotallocConfig(), []*lint.Package{pkg})
	byKey := make(map[string]int)
	for _, s := range sites {
		byKey[s.Key]++
	}
	// The closure enqueued by cold register() is hot; its make() must be
	// attributed to register, the enclosing declaration.
	if byKey["fixture/hotalloc.register/make"] != 1 {
		t.Errorf("closure site attribution: got keys %v", byKey)
	}
	// The suppressed site still appears in the raw scan (suppression is
	// Run's concern, the baseline counts every live site).
	if byKey["fixture/hotalloc.allowedScratch/make"] != 1 {
		t.Errorf("allowedScratch site missing from raw scan: %v", byKey)
	}
	if byKey["fixture/hotalloc.unreachable/make"] != 0 {
		t.Errorf("unreachable site leaked into the scan: %v", byKey)
	}
}

// TestBaselineRoundTrip checks the ratchet mechanics in isolation:
// serialization is stable, regressions and staleness are both detected.
func TestBaselineRoundTrip(t *testing.T) {
	pkg := loadHotallocFixture(t)
	b := lint.ComputeBaseline(hotallocConfig(), []*lint.Package{pkg})
	if b.Total() == 0 {
		t.Fatal("fixture baseline is empty")
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := lint.LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if reg, stale := loaded.Diff(b); len(reg) != 0 || len(stale) != 0 {
		t.Fatalf("round trip not clean: regressions=%v stale=%v", reg, stale)
	}

	// A new site is a regression; a removed one is stale.
	worse := lint.ComputeBaseline(hotallocConfig(), []*lint.Package{pkg})
	worse.Sites["fixture/hotalloc.helper/make"]++
	if reg, _ := loaded.Diff(worse); len(reg) != 1 {
		t.Errorf("regression not detected: %v", reg)
	}
	better := lint.ComputeBaseline(hotallocConfig(), []*lint.Package{pkg})
	delete(better.Sites, "fixture/hotalloc.helper/make")
	if _, stale := loaded.Diff(better); len(stale) != 1 {
		t.Errorf("staleness not detected: %v", stale)
	}

	// Missing files are "no ratchet", not an error.
	if got, err := lint.LoadBaseline(filepath.Join(t.TempDir(), "absent.json")); err != nil || got != nil {
		t.Errorf("LoadBaseline(absent) = (%v, %v), want (nil, nil)", got, err)
	}
}

// TestBaselineRatchetFilter checks the analyzer-side ratchet: with the
// fixture's own baseline in place hotalloc reports nothing, and shrinking
// one allowance resurfaces every site of that key.
func TestBaselineRatchetFilter(t *testing.T) {
	pkg := loadHotallocFixture(t)
	cfg := hotallocConfig()
	cfg.Baseline = lint.ComputeBaseline(hotallocConfig(), []*lint.Package{pkg})
	diags := lint.Run(cfg, []*lint.Package{pkg}, []lint.Analyzer{lint.HotAlloc{}})
	if len(diags) != 0 {
		t.Fatalf("baselined tree not clean: %v", diags)
	}
	cfg.Baseline.Sites["fixture/hotalloc.helper/chan"]--
	diags = lint.Run(cfg, []*lint.Package{pkg}, []lint.Analyzer{lint.HotAlloc{}})
	if len(diags) != 3 {
		t.Fatalf("over-baseline key must resurface all 3 chan sites, got %v", diags)
	}
}

// TestWriteJSONGolden pins the swexlint -json record format, including
// the allow-state of the suppressed fixture site.
func TestWriteJSONGolden(t *testing.T) {
	pkg := loadHotallocFixture(t)
	diags := lint.RunAll(hotallocConfig(), []*lint.Package{pkg}, []lint.Analyzer{lint.HotAlloc{}})
	abs, err := filepath.Abs(filepath.Join("testdata", "src", "hotalloc"))
	if err != nil {
		t.Fatalf("Abs: %v", err)
	}
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, abs, diags); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	goldenPath := filepath.Join("testdata", "json.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(golden, buf.Bytes()) {
		t.Errorf("-json output drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), golden)
	}
}
