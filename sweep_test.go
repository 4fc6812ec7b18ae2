package swex

// Sweep-level regression tests: the parallel orchestrator must be
// invisible in experiment output (byte-identical reports at any worker
// count, cold or warm cache), and the shared job cache must deduplicate
// simulation points that several experiments have in common.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// TestSharedBaselineComputedOnce is the dedup regression test: Table 3,
// Figures 4 and 5 and the scaling study all need sequential baselines,
// and one Render over them must simulate each distinct point exactly once.
func TestSharedBaselineComputedOnce(t *testing.T) {
	var mu sync.Mutex
	execs := make(map[string]int)
	r := sweep.MustNewRunner(sweep.Config{OnExecute: func(j sweep.Job) {
		key, err := j.Key("")
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		execs[key]++
		mu.Unlock()
	}})
	defer r.Close()
	o := Options{Quick: true, Sweep: r}
	ms, err := SelectMatrices([]string{"table3", "fig4", "fig5", "scaling"})
	if err != nil {
		t.Fatal(err)
	}
	exhibits, err := Render(o, ms)
	if err != nil {
		t.Fatal(err)
	}

	distinct := make(map[string]bool)
	listed := 0
	for _, m := range ms {
		for _, j := range m.Jobs(o) {
			key, err := j.Key("")
			if err != nil {
				t.Fatal(err)
			}
			distinct[key] = true
			listed++
		}
	}
	if len(distinct) == listed {
		t.Fatalf("the four exhibits share no point (%d jobs); the test checks nothing", listed)
	}
	for key := range distinct {
		if got := execs[key]; got != 1 {
			t.Errorf("%s executed %d times, want 1", key, got)
		}
	}
	if len(execs) != len(distinct) {
		t.Errorf("executed %d distinct keys, the exhibits list %d", len(execs), len(distinct))
	}
	executed := 0
	for _, e := range exhibits {
		executed += e.Executed
	}
	if executed != len(distinct) || r.TotalExecs() != len(distinct) {
		t.Errorf("exhibits report %d executed and the runner %d, want %d",
			executed, r.TotalExecs(), len(distinct))
	}
}

// TestCorruptedObjectIsAMiss edits the cached object behind Table 1's
// assembly read latency from 193 to 999, leaving valid JSON, and requires
// the next run to re-execute that one job and print the original number.
func TestCorruptedObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	ms, err := SelectMatrices([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	render := func() (string, int) {
		t.Helper()
		var execs atomic.Int64
		r, err := NewSweeper(SweeperConfig{CacheDir: dir, OnExecute: func(sweep.Job) { execs.Add(1) }})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		exhibits, err := Render(Options{Quick: true, Sweep: r}, ms)
		if err != nil {
			t.Fatal(err)
		}
		return exhibits[0].Text, int(execs.Load())
	}
	cold, _ := render()
	if !strings.Contains(cold, " 193 ") {
		t.Fatalf("quick Table 1 no longer reads 193; pick another number:\n%s", cold)
	}

	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	edited := 0
	for _, path := range objects {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bad := bytes.Replace(data, []byte(`"ReadMean": 193,`), []byte(`"ReadMean": 999,`), 1); !bytes.Equal(bad, data) {
			if err := os.WriteFile(path, bad, 0o666); err != nil {
				t.Fatal(err)
			}
			edited++
		}
	}
	if edited != 1 {
		t.Fatalf("edited %d objects, want 1", edited)
	}

	if got, execs := render(); got != cold || execs != 1 {
		t.Fatalf("after the edit: %d execution(s), want 1; report:\n%s", execs, got)
	}
	if got, execs := render(); got != cold || execs != 0 {
		t.Fatalf("re-executed object not rewritten: %d execution(s); report:\n%s", execs, got)
	}
}
