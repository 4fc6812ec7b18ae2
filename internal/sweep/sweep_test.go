package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/trace"
)

// smallMatrix returns n distinct, fast WORKER jobs.
func smallMatrix(n int) []Job {
	specs := proto.Spectrum()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = WorkerJob(1+i%3, 1+i/3, machine.Config{
			Nodes: 4,
			Spec:  specs[i%len(specs)],
		})
	}
	return jobs
}

func TestKeyStableAndDistinct(t *testing.T) {
	jobs := smallMatrix(9)
	seen := map[string]int{}
	for i, j := range jobs {
		k1, err := j.Key("")
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		k2, err := j.Key("")
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if k1 != k2 {
			t.Fatalf("job %d: key not stable:\n%s\n%s", i, k1, k2)
		}
		if prev, dup := seen[k1]; dup {
			t.Fatalf("jobs %d and %d share key %q", prev, i, k1)
		}
		seen[k1] = i
		salted, err := j.Key("branch-x")
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if salted == k1 {
			t.Fatalf("job %d: salt did not change the key", i)
		}
	}
}

func TestKeyRejectsUnserializableConfig(t *testing.T) {
	base := machine.Config{Nodes: 4, Spec: proto.FullMap()}

	withTrace := WorkerJob(1, 1, base)
	withTrace.Config.Trace = trace.NewCollector()
	if _, err := withTrace.Key(""); err == nil {
		t.Fatal("job with a trace sink must not be hashable")
	}

	withSoftware := WorkerJob(1, 1, base)
	withSoftware.Config.CustomSoftware = struct{ proto.Software }{}
	if _, err := withSoftware.Key(""); err == nil {
		t.Fatal("job with custom software must not be hashable")
	}

	r := MustNewRunner(Config{Workers: 1})
	defer r.Close()
	out := r.Sweep(context.Background(), []Job{withTrace})
	if out[0].Err == nil || out[0].Key != "" {
		t.Fatalf("sweep must surface the key error, got %+v", out[0])
	}
}

// TestKeyRejectsMetacharacters requires every string Key embeds to be
// free of '|' and '='. A crafted salt and a crafted spec name can
// otherwise render two different jobs as one key: each smuggles the
// other job's program fields into the key text.
func TestKeyRejectsMetacharacters(t *testing.T) {
	cfg := machine.Config{Nodes: 4, Spec: proto.FullMap()}
	a, b := WorkerJob(1, 1, cfg), WorkerJob(2, 3, cfg)
	programFields := func(j Job) string {
		k, err := j.Key("x")
		if err != nil {
			t.Fatal(err)
		}
		return k[strings.Index(k, "|app=")+len("|app=") : strings.Index(k, "|spec=")]
	}
	name := cfg.Spec.Name
	crafted := a
	crafted.Config.Spec.Name = name + "|app=" + programFields(b) + "|spec=" + name
	craftedSalt := "x|app=" + programFields(a) + "|spec=" + name
	// Rendered without the check, crafted under salt "x" and b under
	// craftedSalt both read "...|salt=x|app=<a's fields>|spec=<name>
	// |app=<b's fields>|spec=<name>|hw=...".
	if _, err := crafted.Key("x"); !errors.Is(err, ErrKeyField) {
		t.Errorf("crafted spec name: err = %v, want ErrKeyField", err)
	}
	if _, err := b.Key(craftedSalt); !errors.Is(err, ErrKeyField) {
		t.Errorf("crafted salt: err = %v, want ErrKeyField", err)
	}

	fields := map[string]func(*Job){
		"app":      func(j *Job) { j.Program.App = "WORKER=1" },
		"litmus":   func(j *Job) { j.Program.Litmus = "v1|t0" },
		"fmregion": func(j *Job) { j.Program.FullMapRegion = "r=1" },
		"spec":     func(j *Job) { j.Config.Spec.Name = "DirnH5SNB|x" },
	}
	for field, set := range fields {
		j := a
		set(&j)
		if _, err := j.Key(""); !errors.Is(err, ErrKeyField) {
			t.Errorf("%s with a metacharacter: err = %v, want ErrKeyField", field, err)
		}
	}
	for _, salt := range []string{"a=b", "a|b"} {
		if _, err := a.Key(salt); !errors.Is(err, ErrKeyField) {
			t.Errorf("salt %q: err = %v, want ErrKeyField", salt, err)
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	jobs := smallMatrix(8)
	run := func(workers int) []Outcome {
		r := MustNewRunner(Config{Workers: workers})
		defer r.Close()
		return r.Sweep(context.Background(), jobs)
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 7} {
		parallel := run(workers)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("outcomes differ between 1 and %d workers", workers)
		}
	}
}

// execCounts is an OnExecute hook that counts simulation executions per
// job key.
type execCounts struct {
	mu sync.Mutex
	n  map[string]int
}

func newExecCounts() *execCounts { return &execCounts{n: make(map[string]int)} }

func (c *execCounts) hook(j Job) {
	key, _ := j.Key("")
	c.mu.Lock()
	c.n[key]++
	c.mu.Unlock()
}

// of reports how many times j's simulation ran.
func (c *execCounts) of(j Job) int {
	key, _ := j.Key("")
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[key]
}

func TestSweepDedupFansOut(t *testing.T) {
	execs := newExecCounts()
	r := MustNewRunner(Config{Workers: 4, OnExecute: execs.hook})
	defer r.Close()
	job := smallMatrix(1)[0]

	out := r.Sweep(context.Background(), []Job{job, job, job})
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		if !reflect.DeepEqual(o.Result, out[0].Result) {
			t.Fatalf("outcome %d diverges from fan-out", i)
		}
	}
	if got := execs.of(job); got != 1 {
		t.Fatalf("duplicate jobs in one sweep executed %d times, want 1", got)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRunner(Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallMatrix(5)
	first := r.Sweep(context.Background(), jobs)
	for i, o := range first {
		if o.Err != nil || o.CacheErr != nil {
			t.Fatalf("outcome %d: err=%v cacheErr=%v", i, o.Err, o.CacheErr)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh runner over the same directory must serve every job from
	// disk, with byte-identical results and zero executions.
	r2, err := NewRunner(Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	second := r2.Sweep(context.Background(), jobs)
	for i, o := range second {
		if o.Err != nil {
			t.Fatalf("warm outcome %d: %v", i, o.Err)
		}
		if !o.Cached {
			t.Fatalf("warm outcome %d not served from cache", i)
		}
		if !reflect.DeepEqual(o.Result, first[i].Result) {
			t.Fatalf("warm outcome %d differs from cold result", i)
		}
	}
	if got := r2.TotalExecs(); got != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", got)
	}
}

// TestCacheServesOnlyDigestedRecords pins that an object without an
// embedded digest, as cache directories written before objects carried
// one hold, is a miss: the job re-executes and its rewritten object is
// served from then on.
func TestCacheServesOnlyDigestedRecords(t *testing.T) {
	dir := t.TempDir()
	jobs := smallMatrix(3)
	r, err := NewRunner(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	objects := cacheFiles(t, dir, "objects")
	if len(objects) != len(jobs) {
		t.Fatalf("%d objects for %d jobs", len(objects), len(jobs))
	}
	for _, path := range objects {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var obj object
		if err := json.Unmarshal(data, &obj); err != nil || obj.Digest == "" {
			t.Fatalf("object %s: want a digest (err %v)", path, err)
		}
		legacy, err := json.MarshalIndent(struct {
			Key    string
			Result Result
		}{obj.Key, obj.Result}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(legacy, '\n'), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	for _, want := range []int{len(jobs), 0} {
		r, err := NewRunner(Config{Workers: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		if got := r.TotalExecs(); got != want {
			t.Fatalf("executed %d simulations, want %d", got, want)
		}
	}
}

// cacheFiles lists the files of one tree of a cache directory.
func cacheFiles(t *testing.T, dir, tree string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, tree, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCacheToleratesTornWrites leaves what a crash mid-Put can leave — a
// half-written temporary file beside the objects — and truncates one
// object as a torn disk would. The temporary file is ignored, the
// truncated object re-executes, and every other job stays warm.
func TestCacheToleratesTornWrites(t *testing.T) {
	dir := t.TempDir()
	jobs := smallMatrix(3)
	r, err := NewRunner(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	key, _ := jobs[0].Key("")
	path := (&Cache{dir: dir}).path("objects", HashKey(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp123")
	if err := os.WriteFile(tmp, data[:len(data)/3], 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Status(); err != nil || st.Done != len(jobs)-1 || st.Failed != 0 {
		t.Fatalf("status %+v (%v), want %d done", st, err, len(jobs)-1)
	}
	execs := newExecCounts()
	r2, err := NewRunner(Config{Workers: 1, CacheDir: dir, OnExecute: execs.hook})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want := 0
		if i == 0 {
			want = 1
		}
		if got := execs.of(j); got != want {
			t.Fatalf("job %d executed %d times after the torn write, want %d", i, got, want)
		}
	}
}

// TestCacheSkipsMalformedFiles pins that a file holding something other
// than what its name promises is never served and never counted.
func TestCacheSkipsMalformedFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		// bad rewrites the object of key k1, given the object of k2.
		bad func(k1, k2 []byte) []byte
	}{
		{"not_json", func(k1, _ []byte) []byte { return []byte("garbage not json\n") }},
		// A valid, self-consistent object filed under another key's hash.
		{"foreign_hash", func(_, k2 []byte) []byte { return k2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"k1", "k2"} {
				if err := c.Put(key, Result{Time: 7}); err != nil {
					t.Fatal(err)
				}
			}
			p1, p2 := c.path("objects", HashKey("k1")), c.path("objects", HashKey("k2"))
			k1, err1 := os.ReadFile(p1)
			k2, err2 := os.ReadFile(p2)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p1, tc.bad(k1, k2), 0o666); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("k1"); ok {
				t.Fatal("served k1 from a malformed file")
			}
			if _, ok := c.Get("k2"); !ok {
				t.Fatal("k2 no longer served")
			}
			if st, err := c.Status(); err != nil || st.Done != 1 {
				t.Fatalf("status %+v (%v), want 1 done", st, err)
			}
		})
	}
}

// TestStatusReportsLatestState pins Status over a history with
// superseded records: k1 completes, k2 fails then succeeds on retry, k3
// fails twice, and a success of k4 races a failure written after it.
func TestStatusReportsLatestState(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Time: 7}
	for _, step := range []struct {
		key string
		err error
	}{
		{"k1", nil},
		{"k3", errors.New("boom a")},
		{"k2", errors.New("first attempt")},
		{"k2", nil},
		{"k3", errors.New("boom b")},
		{"k4", nil},
		{"k4", errors.New("late failure")},
		{"k0", errors.New("sorted first")},
	} {
		if step.err == nil {
			err = c.Put(step.key, res)
		} else {
			err = c.PutFailure(step.key, step.err)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cacheFiles(t, c.dir, "failed")); n != 3 {
		t.Fatalf("%d failure files, want 3 (k0, k3, k4): a Put must remove its key's failure", n)
	}
	for _, key := range []string{"k1", "k2", "k4"} {
		if got, ok := c.Get(key); !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("Get(%q) = %+v, %v; want hit", key, got, ok)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	want := Status{Done: 3, Failed: 2, Failures: []Failure{{"k0", "sorted first"}, {"k3", "boom b"}}}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("status %+v, want %+v", st, want)
	}
}

// TestTwoRunnersShareOneDirectory runs two runners at once on one cache
// directory over overlapping matrices, as two processes sharing -cache
// would. A third runner must then serve every job warm, with the results
// a cacheless Execute computes.
func TestTwoRunnersShareOneDirectory(t *testing.T) {
	dir := t.TempDir()
	jobs := smallMatrix(8)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, part := range [][]Job{jobs[:6], jobs[2:]} {
		r, err := NewRunner(Config{Workers: 2, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range r.Sweep(context.Background(), part) {
				errs[i] = errors.Join(errs[i], o.Err, o.CacheErr)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := r.Sweep(context.Background(), jobs)
	if got := r.TotalExecs(); got != 0 {
		t.Fatalf("third runner executed %d simulations, want 0", got)
	}
	for i, o := range warm {
		want, err := Execute(jobs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Cached || o.Err != nil || !reflect.DeepEqual(o.Result, want) {
			t.Fatalf("job %d: cached=%v err=%v, result differs from Execute: %v",
				i, o.Cached, o.Err, !reflect.DeepEqual(o.Result, want))
		}
	}
}

func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	jobs := smallMatrix(12)

	// First attempt: cancel the sweep after a few executions, as a crash
	// would. The cache must keep exactly the completed jobs.
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	firstExecs := newExecCounts()
	r, err := NewRunner(Config{
		Workers:  2,
		CacheDir: dir,
		OnExecute: func(j Job) {
			firstExecs.hook(j)
			if executed.Add(1) == 4 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Sweep(ctx, jobs)
	cancel()
	var doneFirst, cancelled int
	for _, o := range out {
		switch {
		case o.Err == nil:
			doneFirst++
		case errors.Is(o.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("unexpected failure: %v", o.Err)
		}
	}
	if cancelled == 0 {
		t.Fatal("cancellation reached no job; cannot exercise resume")
	}
	r.Close()

	// Resume: a fresh runner over the same cache completes the matrix,
	// never re-executing a finished job.
	resumeExecs := newExecCounts()
	r2, err := NewRunner(Config{Workers: 2, CacheDir: dir, OnExecute: resumeExecs.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	resumed := r2.Sweep(context.Background(), jobs)
	for i, o := range resumed {
		if o.Err != nil {
			t.Fatalf("resumed outcome %d: %v", i, o.Err)
		}
	}
	for i, j := range jobs {
		total := firstExecs.of(j) + resumeExecs.of(j)
		if total != 1 {
			t.Fatalf("job %d executed %d times across crash and resume, want exactly 1", i, total)
		}
	}
	if want := len(jobs); int(executed.Load())+0 != want {
		// executed counts only the first runner's OnExecute calls; add the
		// resumed runner's total for the across-process sum.
		if got := int(executed.Load()) + r2.TotalExecs(); got != want {
			t.Fatalf("matrix of %d jobs took %d executions across crash and resume", want, got)
		}
	}

	// Third run: everything warm, nothing executes.
	r3, err := NewRunner(Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if _, err := r3.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := r3.TotalExecs(); got != 0 {
		t.Fatalf("fully-warm run executed %d simulations, want 0", got)
	}
}

func TestPanicBecomesFailureRecord(t *testing.T) {
	dir := t.TempDir()
	poison := smallMatrix(1)[0]
	poisonKey, _ := poison.Key("")
	r, err := NewRunner(Config{
		Workers:  1,
		CacheDir: dir,
		OnExecute: func(j Job) {
			if k, _ := j.Key(""); k == poisonKey {
				panic("injected test panic")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Sweep(context.Background(), []Job{poison})
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "injected test panic") {
		t.Fatalf("panic not converted to failure record: %v", out[0].Err)
	}
	r.Close()

	// The failure is recorded for reporting but never served as a result:
	// a resumed sweep re-executes the job (this time without the poison).
	execs := newExecCounts()
	r2, err := NewRunner(Config{Workers: 1, CacheDir: dir, OnExecute: execs.hook})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	st := cacheStatus(t, dir)
	if st.Failed != 1 || len(st.Failures) != 1 {
		t.Fatalf("failure not recorded: %+v", st)
	}
	if !strings.Contains(st.Failures[0].Err, "injected test panic") || !strings.Contains(st.Failures[0].Err, "goroutine") {
		t.Fatalf("recorded failure lost its error or stack: %q", st.Failures[0].Err)
	}
	if _, err := r2.Run(context.Background(), []Job{poison}); err != nil {
		t.Fatalf("failed job must re-execute on resume: %v", err)
	}
	if got := execs.of(poison); got != 1 {
		t.Fatalf("resume executed the failed job %d times, want 1", got)
	}
	if st := cacheStatus(t, dir); st.Failed != 0 {
		t.Fatalf("success must clear the recorded failure, still %d failed", st.Failed)
	}
}

// cacheStatus reads a cache directory's status as a separate process
// would.
func cacheStatus(t *testing.T, dir string) Status {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCycleBudget(t *testing.T) {
	job := smallMatrix(1)[0]
	r := MustNewRunner(Config{Workers: 1, CycleBudget: 10})
	defer r.Close()
	out := r.Sweep(context.Background(), []Job{job})
	if out[0].Err == nil {
		t.Fatal("a 10-cycle budget must fail a real WORKER run")
	}

	// An explicit per-job limit overrides the runner default.
	generous := job
	generous.Limit = 100_000_000
	out = r.Sweep(context.Background(), []Job{generous})
	if out[0].Err != nil {
		t.Fatalf("per-job limit override: %v", out[0].Err)
	}
}

func TestRunFailFastIsDeterministic(t *testing.T) {
	jobs := smallMatrix(4)
	jobs[1].Program.App = "NO-SUCH-APP"
	jobs[3].Program.App = "ALSO-MISSING"
	r := MustNewRunner(Config{Workers: 4})
	defer r.Close()
	_, err := r.Run(context.Background(), jobs)
	if err == nil || !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("fail-fast must report the first failure by submission order, got %v", err)
	}
}

func TestRunPoolCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 5, 97} {
			var hits atomic.Int64
			seen := make([]atomic.Bool, max(n, 1))
			busy := make([]atomic.Bool, max(workers, 1))
			runPool(workers, n, func(w, i int) {
				if w < 0 || w >= min(max(workers, 1), n) {
					panic("sweep_test: worker index out of range")
				}
				// A worker's machine is reused only if no two calls
				// run on one worker index at once.
				if busy[w].Swap(true) {
					panic("sweep_test: worker index in use twice at once")
				}
				defer busy[w].Store(false)
				hits.Add(1)
				if seen[i].Swap(true) {
					panic("sweep_test: index visited twice")
				}
			})
			if int(hits.Load()) != n {
				t.Fatalf("workers=%d n=%d: %d calls", workers, n, hits.Load())
			}
		}
	}
}
