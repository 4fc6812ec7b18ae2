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

// Runner executes job matrices. It memoizes results in process, optionally
// persists them through a Cache, and is safe for use from one goroutine at
// a time (the worker pool is internal).
type Runner struct {
	cfg   Config
	cache *Cache

	mu    sync.Mutex
	memo  map[string]Result // key hash -> finished result
	execs map[string]int    // key hash -> simulation executions
	total int
}

// NewRunner builds a runner, opening the disk cache when configured.
func NewRunner(cfg Config) (*Runner, error) {
	r := &Runner{
		cfg:   cfg,
		memo:  make(map[string]Result),
		execs: make(map[string]int),
	}
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

// Close releases the disk cache, if any.
func (r *Runner) Close() error {
	if r.cache == nil {
		return nil
	}
	return r.cache.Close()
}

// Cache exposes the runner's disk cache (nil when memory-only).
func (r *Runner) Cache() *Cache { return r.cache }

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
	// Hash is the SHA-256 of Key, the cache and journal identifier.
	Hash string
	// Result is valid when Err is nil.
	Result Result
	// Err records an invalid description, a panic, a budget violation, a
	// simulation error, or context cancellation.
	Err error
	// Cached marks results served without executing a simulation (from
	// the in-process memo or the disk cache).
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

	// Serve memo and disk-cache hits without scheduling.
	var pending []*task
	for _, t := range tasks {
		if res, ok := r.lookup(t.key, t.hash); ok {
			for _, i := range t.indices {
				outcomes[i].Result, outcomes[i].Cached = res, true
			}
			continue
		}
		pending = append(pending, t)
	}

	// Execute the remainder on the pool and fan each verdict out.
	results := make([]Outcome, len(pending))
	runPool(r.Workers(), len(pending), func(ti int) {
		t := pending[ti]
		o := &results[ti]
		if err := ctx.Err(); err != nil {
			o.Err = err
			return
		}
		res, err := r.execute(t.job, t.key)
		if err != nil {
			o.Err = err
			if r.cache != nil {
				o.CacheErr = r.cache.PutFailure(t.key, err)
			}
			return
		}
		o.Result = res
		r.mu.Lock()
		r.memo[t.hash] = res
		r.mu.Unlock()
		if r.cache != nil {
			o.CacheErr = r.cache.Put(t.key, res)
		}
	})
	for ti, t := range pending {
		for _, i := range t.indices {
			outcomes[i].Result = results[ti].Result
			outcomes[i].Err = results[ti].Err
			outcomes[i].CacheErr = results[ti].CacheErr
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

// lookup consults the in-process memo, then the disk cache (promoting disk
// hits into the memo).
func (r *Runner) lookup(key, hash string) (Result, bool) {
	r.mu.Lock()
	res, ok := r.memo[hash]
	r.mu.Unlock()
	if ok {
		return res, true
	}
	if r.cache == nil {
		return Result{}, false
	}
	res, ok = r.cache.Get(key)
	if ok {
		r.mu.Lock()
		r.memo[hash] = res
		r.mu.Unlock()
	}
	return res, ok
}

// execute counts and runs one simulation under panic recovery and the
// cycle budget.
func (r *Runner) execute(job Job, key string) (res Result, err error) {
	defer func() {
		//lint:allow panic-hygiene(a panicking OnExecute hook must become a failure record, not a crashed sweep; the stack is preserved in the error)
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sweep: job panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	r.mu.Lock()
	hash := HashKey(key)
	r.execs[hash]++
	r.total++
	r.mu.Unlock()
	if r.cfg.OnExecute != nil {
		r.cfg.OnExecute(job)
	}
	return Execute(job, r.cfg.CycleBudget)
}

// Execute runs one job's simulation to completion and captures its
// cacheable result. It is the single-execution primitive under the Runner
// (and under benchmarks that time one run): because the simulator is
// deterministic, the Result is a pure function of the job — two Execute
// calls for equal job keys, in any process, return interchangeable
// results, which is what lets processes share one cache directory. A
// panicking simulation becomes an error carrying the stack (a failure
// record, never a crashed worker). defaultLimit bounds the run in simulated cycles when
// Job.Limit is zero (0 = unbounded). On return the job's machine is
// released (machine.Machine.Release), so its cache storage serves later
// jobs.
func Execute(job Job, defaultLimit sim.Cycle) (res Result, err error) {
	defer func() {
		//lint:allow panic-hygiene(a panicking simulation must become a failure record, not a crashed worker; the stack is preserved in the error)
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sweep: job panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	prog, err := job.Program.Resolve()
	if err != nil {
		return Result{}, err
	}
	m, err := machine.New(job.Config)
	if err != nil {
		return Result{}, err
	}
	// Execute owns the machine from New to its last read, so it is the
	// one place that releases a machine. The deferred call runs after the
	// result and observations are captured, and on a panic too: Insert
	// marks a set before it writes one, so the storage is releasable at
	// any instant.
	defer m.Release()
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

// ExecCount reports how many times the job's simulation actually ran under
// this runner (cache hits do not count). Invalid jobs report zero.
func (r *Runner) ExecCount(job Job) int {
	key, err := job.Key(r.cfg.Salt)
	if err != nil {
		return 0
	}
	hash := HashKey(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.execs[hash]
}

// TotalExecs reports the runner-wide simulation execution count.
func (r *Runner) TotalExecs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// runPool distributes task indices 0..n-1 over a fixed worker pool. Work
// is handed out through an atomic counter, so no channels are involved and
// the only scheduler freedom is which worker runs which task — invisible
// in the output, which is merged by task index.
func runPool(workers, n int, run func(int)) {
	if workers > n {
		workers = n
	}
	if n == 0 {
		return
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
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
				run(i)
			}
		}()
	}
	wg.Wait()
}
