package sweep

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/sim"
)

// litmusMatrix returns the corpus compiled into jobs on a 4-node
// full-map machine.
func litmusMatrix() []Job {
	corpus := litmus.Corpus()
	jobs := make([]Job, len(corpus))
	for i, tc := range corpus {
		jobs[i] = LitmusJob(tc.Prog, machine.DefaultConfig(4, proto.FullMap()))
	}
	return jobs
}

func TestLitmusJobCapturesObservations(t *testing.T) {
	jobs := litmusMatrix()
	r := MustNewRunner(Config{Workers: 2})
	defer r.Close()
	results, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	corpus := litmus.Corpus()
	for i, res := range results {
		if res.Obs == nil {
			t.Fatalf("%s: result carries no observation log", corpus[i].Name)
		}
		obs, err := litmus.ThreadObs(corpus[i].Prog, res.Obs, jobs[i].Config.ThreadsPerNode)
		if err != nil {
			t.Fatalf("%s: %v", corpus[i].Name, err)
		}
		v, err := litmus.CheckSC(corpus[i].Prog, obs)
		if err != nil {
			t.Fatalf("%s: %v", corpus[i].Name, err)
		}
		if !v.OK {
			t.Fatalf("%s: full-map run not sequentially consistent: obs %v", corpus[i].Name, obs)
		}
	}
}

// TestReusedCacheStorageIsInvisible sweeps the litmus corpus on three
// protocols twice with two workers, each pass on a fresh runner so every
// job executes, on machines each worker resets from its previous job.
// Both passes must equal a one-worker sweep.
func TestReusedCacheStorageIsInvisible(t *testing.T) {
	var jobs []Job
	for _, alias := range []string{"full", "h1ack", "dir1sw"} {
		spec, err := litmus.SpecByAlias(alias)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range litmus.Corpus() {
			if len(tc.Prog.Threads) <= 4 && litmus.CompatibleBase(tc.Prog, spec) {
				jobs = append(jobs, LitmusJob(tc.Prog, machine.DefaultConfig(4, spec)))
			}
		}
	}
	sweep := func(workers int) []Result {
		r := MustNewRunner(Config{Workers: workers})
		defer r.Close()
		results, err := r.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if r.TotalExecs() != len(jobs) {
			t.Fatalf("runner executed %d of %d jobs", r.TotalExecs(), len(jobs))
		}
		return results
	}
	want := sweep(1)
	for pass := 1; pass <= 2; pass++ {
		if got := sweep(2); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d with two workers differs from the one-worker sweep", pass)
		}
	}
}

// TestReusedEngineStorageIsInvisible sweeps the litmus corpus twice with
// two workers, each pass on a fresh runner, with every job also run
// under cycle limits that stop it part way. Those runs fail with events
// still pending, so later jobs start on a machine reset with its engine
// queue full (sim.Engine.Reset). Both passes, failures and their
// messages included, must equal a one-worker sweep.
func TestReusedEngineStorageIsInvisible(t *testing.T) {
	var jobs []Job
	for _, alias := range []string{"full", "h1ack", "dir1sw"} {
		spec, err := litmus.SpecByAlias(alias)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range litmus.Corpus() {
			if len(tc.Prog.Threads) > 4 || !litmus.CompatibleBase(tc.Prog, spec) {
				continue
			}
			for _, limit := range []sim.Cycle{0, 30, 70} {
				j := LitmusJob(tc.Prog, machine.DefaultConfig(4, spec))
				j.Limit = limit
				jobs = append(jobs, j)
			}
		}
	}
	type outcome struct {
		Result Result
		Err    string
	}
	sweep := func(workers int) []outcome {
		r := MustNewRunner(Config{Workers: workers})
		defer r.Close()
		var out []outcome
		for _, o := range r.Sweep(context.Background(), jobs) {
			var msg string
			if o.Err != nil {
				msg = o.Err.Error()
			}
			out = append(out, outcome{o.Result, msg})
		}
		if r.TotalExecs() != len(jobs) {
			t.Fatalf("runner executed %d of %d jobs", r.TotalExecs(), len(jobs))
		}
		return out
	}
	want := sweep(1)
	failed := 0
	for _, o := range want {
		if o.Err != "" {
			failed++
		}
	}
	if failed == 0 || failed == len(want) {
		t.Fatalf("%d of %d jobs hit their limit; the test needs both kinds", failed, len(want))
	}
	for pass := 1; pass <= 2; pass++ {
		if got := sweep(2); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d with two workers differs from the one-worker sweep", pass)
		}
	}
}

func TestLitmusJobObservationsRideTheCache(t *testing.T) {
	jobs := litmusMatrix()
	dir := t.TempDir()

	cold := MustNewRunner(Config{Workers: 2, CacheDir: dir})
	coldRes, err := cold.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	execs := cold.TotalExecs()
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if execs != len(jobs) {
		t.Fatalf("cold run executed %d of %d jobs", execs, len(jobs))
	}

	warm := MustNewRunner(Config{Workers: 2, CacheDir: dir})
	defer warm.Close()
	warmRes, err := warm.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalExecs() != 0 {
		t.Fatalf("warm run executed %d simulations, want 0", warm.TotalExecs())
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatal("cached litmus results differ from the executed ones")
	}
}

func TestLitmusJobKeyDistinguishesFaultInjection(t *testing.T) {
	p, cfg := litmus.WeakenedFixture(4)
	weak := LitmusJob(p, cfg)
	cfg.LoseInv = 0
	clean := LitmusJob(p, cfg)
	kw, err := weak.Key("")
	if err != nil {
		t.Fatal(err)
	}
	kc, err := clean.Key("")
	if err != nil {
		t.Fatal(err)
	}
	if kw == kc {
		t.Fatal("lost-invalidation config shares a cache key with the clean one")
	}
}

// TestReusedMachineStorageIsInvisible runs litmus jobs that alternate
// protocol (full map, LimitLESS with software acknowledgments, Dir1SW,
// software-only, so a machine moves between configurations with and
// without extension software), machine size (4 and 8 nodes), threads per
// node, cache size, and cycle limits that stop some runs with work
// pending; every
// seventh job also names a full-map region its program lacks, so it
// fails after its machine is built and the next job resets that machine.
// At one worker every job after the first runs on the machine the job
// before it left; at two, on whichever machine its worker last used.
// Every outcome must equal Execute on a new machine, after two
// collections have emptied the processor thread pool, the state a new
// process starts in.
func TestReusedMachineStorageIsInvisible(t *testing.T) {
	progs := make([]litmus.Program, 0, 24)
	for _, tc := range litmus.Corpus() {
		progs = append(progs, tc.Prog)
	}
	rnd := sim.NewRand(7)
	for len(progs) < cap(progs) {
		progs = append(progs, litmus.Generate(rnd, litmus.GenConfig{
			Threads: 2 + rnd.Intn(3), Vars: 2 + rnd.Intn(2), SpecAliases: []string{"h1ack", "dir1sw"},
		}))
	}
	var jobs []Job
	for i, p := range progs {
		for s, alias := range []string{"full", "h1ack", "dir1sw", "h0"} {
			spec, err := litmus.SpecByAlias(alias)
			if err != nil {
				t.Fatal(err)
			}
			k := i + s
			cfg := machine.DefaultConfig(4+4*(k%2), spec)
			cfg.ThreadsPerNode = 1 + k/2%2
			if i%5 == 1 {
				// A four-line cache makes the run depend on where
				// the variables lie, so stale allocation cursors show.
				cfg.CacheLines = 4
			}
			if len(p.Threads) > cfg.Nodes || !litmus.CompatibleBase(p, spec) {
				continue
			}
			j := LitmusJob(p, cfg)
			if k%3 == 0 {
				j.Limit = sim.Cycle(20 + 15*(k%4))
			}
			if len(jobs)%7 == 3 {
				j.Program.FullMapRegion = "nowhere"
			}
			jobs = append(jobs, j)
		}
	}
	type outcome struct {
		Result Result
		Err    string
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	// The budget turns a run that storage reuse sends astray into a
	// failed outcome instead of a hang.
	const budget = 1_000_000
	want := make([]outcome, len(jobs))
	limited, unplaced := 0, 0
	for i, j := range jobs {
		runtime.GC()
		runtime.GC()
		res, err := Execute(j, budget)
		want[i] = outcome{res, errText(err)}
		switch {
		case err == nil:
		case j.Program.FullMapRegion != "":
			unplaced++
		default:
			limited++
		}
	}
	if limited == 0 || limited+unplaced == len(jobs) || unplaced == 0 {
		t.Fatalf("%d of %d jobs hit their limit and %d named no region; the test needs every kind",
			limited, len(jobs), unplaced)
	}
	for _, workers := range []int{1, 2} {
		r := MustNewRunner(Config{Workers: workers, CycleBudget: budget})
		got := r.Sweep(context.Background(), jobs)
		if r.TotalExecs() != len(jobs) {
			t.Fatalf("%d workers: runner executed %d of %d jobs", workers, r.TotalExecs(), len(jobs))
		}
		for i, j := range jobs {
			if o := (outcome{got[i].Result, errText(got[i].Err)}); !reflect.DeepEqual(o, want[i]) {
				t.Fatalf("%d workers, job %d (%s, %d threads per node, limit %d, region %q): on a reset machine %+v, on a new machine %+v",
					workers, i, j, j.Config.ThreadsPerNode, j.Limit, j.Program.FullMapRegion, o, want[i])
			}
		}
	}
}
