package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
)

// Config parameterizes a Runner.
type Config struct {
	// Workers bounds simultaneous simulations (<= 0 means GOMAXPROCS).
	Workers int
	// CacheDir, when non-empty, opens a content-addressed disk cache
	// there; completed jobs persist and sweeps resume across processes.
	CacheDir string
	// Salt is extra key material mixed into every job hash, for isolating
	// experimental branches that share a cache directory.
	Salt string
	// CycleBudget is the default per-job simulated-cycle limit applied
	// when Job.Limit is zero (0 = unbounded). A job exceeding its budget
	// becomes a failure record, not a hung sweep.
	CycleBudget sim.Cycle
	// OnExecute, when set, is called once per actual simulation execution
	// (not per cache hit), before the run starts. It is the test hook for
	// asserting execution counts; it runs on worker goroutines and must
	// be safe for concurrent use.
	OnExecute func(Job)
}

// Runner executes job matrices. It deduplicates identical jobs within one
// submission, optionally persists results through a Cache (its only
// result store), and is safe for use from one goroutine at a time (the
// worker pool is internal). Within one Sweep each worker runs its jobs
// on one machine, reset for every job after its first; the runner keeps
// no machine between calls.
type Runner struct {
	cfg   Config
	cache *Cache
	total atomic.Int64 // simulation executions
}

// NewRunner builds a runner, opening the disk cache when configured.
func NewRunner(cfg Config) (*Runner, error) {
	r := &Runner{cfg: cfg}
	if cfg.CacheDir != "" {
		c, err := OpenCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		r.cache = c
	}
	return r, nil
}

// MustNewRunner is NewRunner for configurations that cannot fail (no disk
// cache).
func MustNewRunner(cfg Config) *Runner {
	r, err := NewRunner(cfg)
	if err != nil {
		panic(fmt.Sprintf("sweep: runner construction failed: %v", err))
	}
	return r
}

// Close releases the runner. A disk cache holds no open handle between
// calls, so there is nothing to release today; Close stays so callers
// need not know whether a runner has a cache.
func (r *Runner) Close() error { return nil }

// Workers reports the effective worker count.
func (r *Runner) Workers() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Outcome is the per-job verdict of a sweep, in submission order.
type Outcome struct {
	// Job echoes the submitted job.
	Job Job
	// Key is the job's canonical cache key; empty means the job
	// description itself was invalid.
	Key string
	// Hash is the SHA-256 of Key, which names the job's cache files.
	Hash string
	// Result is valid when Err is nil.
	Result Result
	// Err records an invalid description, a panic, a budget violation, a
	// simulation error, or context cancellation.
	Err error
	// Cached marks results served from the disk cache without executing
	// a simulation. Copies of one job within a submission share a
	// verdict, Cached included.
	Cached bool
	// CacheErr records a failure to persist an otherwise valid result;
	// Result still holds.
	CacheErr error
}

// String names a job for error messages.
func (j Job) String() string {
	if j.Program.App == LitmusName {
		return fmt.Sprintf("%s(%s) on %d nodes under %s",
			j.Program.App, j.Program.Litmus, j.Config.Nodes, j.Config.Spec.Name)
	}
	return fmt.Sprintf("%s(set=%d,iters=%d,quick=%v) on %d nodes under %s",
		j.Program.App, j.Program.SetSize, j.Program.Iters, j.Program.Quick,
		j.Config.Nodes, j.Config.Spec.Name)
}

// Sweep executes the matrix and returns one outcome per job, index-aligned
// with the input. Identical jobs are executed once and fanned out, results
// are merged in submission order, and the output is a pure function of the
// job list — byte-identical at any worker count, with or without a warm
// cache. Every failure is deterministic too (an invalid description, the
// cycle budget, or a recovered panic), so a failed job is recorded, not
// retried.
func (r *Runner) Sweep(ctx context.Context, jobs []Job) []Outcome {
	outcomes := make([]Outcome, len(jobs))

	// Resolve canonical identities and deduplicate: one task per distinct
	// key hash, in first-occurrence order.
	type task struct {
		key     string
		hash    string
		job     Job
		indices []int
	}
	var tasks []*task
	byHash := make(map[string]*task)
	for i, job := range jobs {
		outcomes[i].Job = job
		key, err := job.Key(r.cfg.Salt)
		if err != nil {
			outcomes[i].Err = err
			continue
		}
		hash := HashKey(key)
		outcomes[i].Key, outcomes[i].Hash = key, hash
		if t, ok := byHash[hash]; ok {
			t.indices = append(t.indices, i)
			continue
		}
		t := &task{key: key, hash: hash, job: job, indices: []int{i}}
		byHash[hash] = t
		tasks = append(tasks, t)
	}

	// Serve disk-cache hits without scheduling.
	var pending []*task
	for _, t := range tasks {
		if res, ok := r.lookup(t.key); ok {
			for _, i := range t.indices {
				outcomes[i].Result, outcomes[i].Cached = res, true
			}
			continue
		}
		pending = append(pending, t)
	}

	// Execute the remainder on the pool, each task into the outcome of
	// its first index, and fan each verdict out to the others. Each
	// worker keeps the machine of its last job and resets it for the
	// next.
	workers := min(r.Workers(), len(pending))
	held := make([]*machine.Machine, workers)
	runPool(workers, len(pending), func(w, ti int) {
		t := pending[ti]
		o := &outcomes[t.indices[0]]
		if err := ctx.Err(); err != nil {
			o.Err = err
			return
		}
		r.total.Add(1)
		res, err := execute(t.job, r.cfg.CycleBudget, r.cfg.OnExecute, &held[w])
		if err != nil {
			o.Err = err
			if r.cache != nil {
				o.CacheErr = r.cache.PutFailure(t.key, err)
			}
			return
		}
		o.Result = res
		if r.cache != nil {
			o.CacheErr = r.cache.Put(t.key, res)
		}
	})
	for _, t := range pending {
		first := &outcomes[t.indices[0]]
		for _, i := range t.indices[1:] {
			outcomes[i].Result = first.Result
			outcomes[i].Err = first.Err
			outcomes[i].CacheErr = first.CacheErr
		}
	}
	return outcomes
}

// Run is Sweep with fail-fast semantics: it returns the results in
// submission order, or the first failure (by submission order, so the
// error is deterministic too).
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	outcomes := r.Sweep(ctx, jobs)
	results := make([]Result, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("sweep: job %d (%s): %w", i, o.Job, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}

// lookup consults the disk cache, if any.
func (r *Runner) lookup(key string) (Result, bool) {
	if r.cache == nil {
		return Result{}, false
	}
	return r.cache.Get(key)
}

// Execute runs one job's simulation to completion and captures its
// cacheable result. It is the single-execution primitive under the Runner
// (and under benchmarks that time one run): because the simulator is
// deterministic, the Result is a pure function of the job — two Execute
// calls for equal job keys, in any process, return interchangeable
// results, which is what lets processes share one cache directory. A
// panicking simulation becomes an error carrying the stack (a failure
// record, never a crashed worker). defaultLimit bounds the run in simulated cycles when
// Job.Limit is zero (0 = unbounded). Execute builds a new machine for
// the job; a Runner's workers reset theirs instead (machine.Machine.Reset),
// and Execute is the reference their results must equal.
func Execute(job Job, defaultLimit sim.Cycle) (Result, error) {
	var m *machine.Machine
	return execute(job, defaultLimit, nil, &m)
}

// execute is Execute on the machine *held: it resets the machine held
// there for the job, or builds one when there is none, and leaves it
// there for the next job. A job that panics leaves nil instead, because
// its machine may hold a thread suspended mid-body. The hook is called
// first, inside the recovered region, so a panicking hook (the runner's
// OnExecute) becomes a failure record too.
func execute(job Job, defaultLimit sim.Cycle, hook func(Job), held **machine.Machine) (res Result, err error) {
	m := *held
	*held = nil
	defer func() {
		//lint:allow panic-hygiene(a panicking simulation or OnExecute hook must become a failure record, not a crashed worker; the stack is preserved in the error)
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sweep: job panicked: %v\n%s", rec, debug.Stack())
			return
		}
		*held = m
	}()
	if hook != nil {
		hook(job)
	}
	prog, err := job.Program.Resolve()
	if err != nil {
		return Result{}, err
	}
	if m == nil {
		m, err = machine.New(job.Config)
	} else {
		err = m.Reset(job.Config)
	}
	if err != nil {
		return Result{}, err
	}
	limit := job.Limit
	if limit == 0 {
		limit = defaultLimit
	}
	inst := prog.Setup(m)
	if region := job.Program.FullMapRegion; region != "" {
		addrs, ok := inst.Regions[region]
		if !ok {
			return Result{}, fmt.Errorf("sweep: %s has no region %q", job.Program.App, region)
		}
		for _, a := range addrs {
			if err := m.ConfigureBlock(mem.BlockOf(a), proto.FullMap()); err != nil {
				return Result{}, err
			}
		}
	}
	mres, err := m.Run(inst.Thread, limit)
	if err != nil {
		return Result{}, err
	}
	res = CaptureResult(mres)
	if inst.Observations != nil {
		res.Obs = inst.Observations.Values()
	}
	return res, nil
}

// TotalExecs reports the runner-wide simulation execution count.
func (r *Runner) TotalExecs() int { return int(r.total.Load()) }

// runPool distributes task indices 0..n-1 over a fixed worker pool,
// calling run with the worker's index, 0..workers-1, and the task's. Work
// is handed out through an atomic counter, so no channels are involved and
// the only scheduler freedom is which worker runs which task — invisible
// in the output, which is merged by task index.
func runPool(workers, n int, run func(worker, task int)) {
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow determinism(worker-pool handoff: results are merged by task index, so scheduling cannot reach the output)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(w, i)
			}
		}()
	}
	wg.Wait()
}
