package swex

// Sweep-level regression tests: the parallel orchestrator must be
// invisible in experiment output (byte-identical reports at any worker
// count, cold or warm cache), and the shared job cache must deduplicate
// simulation points that several experiments have in common.

import (
	"testing"

	"swex/internal/sweep"
)

// figure2Report renders Figure 2 in quick mode through the given sweeper.
func figure2Report(t *testing.T, s *Sweeper) string {
	t.Helper()
	return run(t, Options{Quick: true, Sweep: s}, figure2).Figure().String()
}

// TestSweepOutputDeterministic is the satellite determinism check: the
// Figure 2 sweep must render byte-identically serial, parallel, and from a
// warm cache. (Also wired into `make check` as sweep-smoke.)
func TestSweepOutputDeterministic(t *testing.T) {
	serialRunner := sweep.MustNewRunner(sweep.Config{Workers: 1})
	defer serialRunner.Close()
	serial := figure2Report(t, serialRunner)

	for _, workers := range []int{2, 4, 8} {
		r := sweep.MustNewRunner(sweep.Config{Workers: workers})
		if got := figure2Report(t, r); got != serial {
			t.Errorf("figure 2 report differs at %d workers:\n--- serial ---\n%s\n--- %d workers ---\n%s",
				workers, serial, workers, got)
		}
		r.Close()
	}

	// Warm cache: a second runner over the same directory replays every
	// point from disk — zero simulations — and still renders the same bytes.
	dir := t.TempDir()
	cold, err := NewSweeper(SweeperConfig{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := figure2Report(t, cold); got != serial {
		t.Errorf("cold cached report differs from serial:\n%s", got)
	}
	cold.Close()

	warm, err := NewSweeper(SweeperConfig{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if got := figure2Report(t, warm); got != serial {
		t.Errorf("warm cached report differs from serial:\n%s", got)
	}
	if got := warm.TotalExecs(); got != 0 {
		t.Errorf("warm cache run executed %d simulations, want 0", got)
	}
}

// TestSharedBaselineComputedOnce is the dedup regression test: Table 3 and
// Figure 4 both need each application's sequential baseline; a shared
// runner must simulate each such point exactly once.
func TestSharedBaselineComputedOnce(t *testing.T) {
	r := sweep.MustNewRunner(sweep.Config{})
	defer r.Close()
	o := Options{Quick: true, Sweep: r}

	run(t, o, table3)
	baselineExecs := r.TotalExecs()
	baselines, _ := newPlan(o, table3)
	if baselineExecs != len(baselines) {
		t.Fatalf("table 3 executed %d simulations for %d baselines", baselineExecs, len(baselines))
	}

	run(t, o, figure4)
	for i, j := range baselines {
		if got := r.ExecCount(j); got != 1 {
			t.Errorf("baseline %d (%s) executed %d times across Table 3 + Figure 4, want 1", i, j, got)
		}
	}
	// Figure 4 must only have paid for its parallel points.
	fig4, _ := newPlan(o, figure4)
	want := baselineExecs + len(fig4) - len(baselines)
	if got := r.TotalExecs(); got != want {
		t.Errorf("Table 3 + Figure 4 executed %d simulations, want %d (shared baselines computed once)", got, want)
	}
}
