package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

func TestSweepDedupAndMemo(t *testing.T) {
	r := MustNewRunner(Config{Workers: 4})
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
	if got := r.ExecCount(job); got != 1 {
		t.Fatalf("duplicate jobs in one sweep executed %d times, want 1", got)
	}

	again := r.Sweep(context.Background(), []Job{job})
	if !again[0].Cached {
		t.Fatal("second sweep must be served from the memo")
	}
	if got := r.ExecCount(job); got != 1 {
		t.Fatalf("memo hit re-executed: %d executions", got)
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

func TestCacheTolerantOfTruncatedFinalLine(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRunner(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	jobs := smallMatrix(3)
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	r.Close()

	manifest := filepath.Join(dir, "manifest.jsonl")
	f, err := os.OpenFile(manifest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated record.
	if _, err := f.WriteString(`{"h":"deadbeef","k":"half-wri`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := NewRunner(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatalf("truncated final manifest line must be tolerated: %v", err)
	}
	defer r2.Close()
	if _, err := r2.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := r2.TotalExecs(); got != 0 {
		t.Fatalf("journaled results lost after torn append: %d re-executions", got)
	}
}

func TestCacheRejectsMidFileCorruption(t *testing.T) {
	for _, tc := range []struct{ name, bad string }{
		{"not json", "garbage not json\n"},
		// A well-formed record whose hash is not the hash of its key.
		{"foreign hash", `{"h":"x","k":"not-a-job","s":"done"}` + "\n"},
		{"unknown status", fmt.Sprintf(`{"h":%q,"k":"k1","s":"maybe"}`, HashKey("k1")) + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := NewRunner(Config{Workers: 1, CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(context.Background(), smallMatrix(2)); err != nil {
				t.Fatal(err)
			}
			r.Close()

			manifest := filepath.Join(dir, "manifest.jsonl")
			data, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(manifest, []byte(tc.bad+string(data)), 0o666); err != nil {
				t.Fatal(err)
			}
			_, err = OpenCache(dir)
			if err == nil {
				t.Fatal("corruption before valid records must fail the open, not drop work silently")
			}
			if !strings.Contains(err.Error(), "line 1 ") {
				t.Fatalf("error does not name the malformed line: %v", err)
			}
		})
	}
}

func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	jobs := smallMatrix(12)

	// First attempt: cancel the sweep after a few executions, as a crash
	// would. The journal must preserve exactly the completed jobs.
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	r, err := NewRunner(Config{
		Workers:  2,
		CacheDir: dir,
		OnExecute: func(Job) {
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
	firstExecs := make(map[string]int)
	for _, j := range jobs {
		key, _ := j.Key("")
		firstExecs[HashKey(key)] = r.ExecCount(j)
	}
	r.Close()

	// Resume: a fresh runner over the same cache completes the matrix,
	// never re-executing a finished job.
	r2, err := NewRunner(Config{Workers: 2, CacheDir: dir})
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
		key, _ := j.Key("")
		total := firstExecs[HashKey(key)] + r2.ExecCount(j)
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

	// The failure is journaled for reporting but never served as a result:
	// a resumed sweep re-executes the job (this time without the poison).
	r2, err := NewRunner(Config{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	st := r2.Cache().Status()
	if st.Failed != 1 || len(st.Failures) != 1 {
		t.Fatalf("failure not journaled: %+v", st)
	}
	if !strings.Contains(st.Failures[0].Err, "injected test panic") {
		t.Fatalf("journaled failure lost its error: %q", st.Failures[0].Err)
	}
	if _, err := r2.Run(context.Background(), []Job{poison}); err != nil {
		t.Fatalf("failed job must re-execute on resume: %v", err)
	}
	if got := r2.ExecCount(poison); got != 1 {
		t.Fatalf("resume executed the failed job %d times, want 1", got)
	}
	if st := r2.Cache().Status(); st.Failed != 0 {
		t.Fatalf("success must clear the journaled failure, still %d failed", st.Failed)
	}
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
			runPool(workers, n, func(i int) {
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

func TestCompactRewritesJournalToLiveRecords(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A history with superseded records: k1 completes, k2 fails then
	// succeeds on retry, k3 fails twice. Journal: 5 lines, live: 3.
	res := Result{Time: 7}
	if err := c.Put("k1", res); err != nil {
		t.Fatal(err)
	}
	if err := c.PutFailure("k2", errors.New("first attempt")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k2", res); err != nil {
		t.Fatal(err)
	}
	if err := c.PutFailure("k3", errors.New("boom a")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutFailure("k3", errors.New("boom b")); err != nil {
		t.Fatal(err)
	}

	records, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if records != 3 {
		t.Fatalf("Compact wrote %d records; want 3 (k1 done, k2 done, k3 failed)", records)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 3 {
		t.Fatalf("compacted manifest has %d lines; want 3:\n%s", got, data)
	}

	// The compacted cache still appends: a new completion lands in the
	// rewritten journal.
	if err := c.Put("k4", res); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open over the compacted journal sees exactly the live state.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("open after compact: %v", err)
	}
	defer c2.Close()
	for _, key := range []string{"k1", "k2", "k4"} {
		if got, ok := c2.Get(key); !ok || got.Time != res.Time {
			t.Fatalf("Get(%q) after compact = %+v, %v; want hit", key, got, ok)
		}
	}
	st := c2.Status()
	if st.Done != 3 || st.Failed != 1 {
		t.Fatalf("status after compact: %+v; want 3 done, 1 failed", st)
	}
	if st.Failures[0].Err != "boom b" {
		t.Fatalf("failure after compact: %+v; want the latest error kept", st.Failures[0])
	}
}

func TestCompactDropsTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", Result{Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.jsonl")
	f, err := os.OpenFile(manifest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"h":"deadbeef","k":"half-wri`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The torn line is tolerated at replay and gone after compaction: the
	// rewritten journal parses strictly, every line.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if _, err := c2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var m manifestLine
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("compacted manifest line %d unparseable: %q", i+1, line)
		}
	}
	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got, ok := c3.Get("k1"); !ok || got.Time != 1 {
		t.Fatalf("Get(k1) after compact = %+v, %v; want hit", got, ok)
	}
}

func TestCompactClosedCacheFails(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact(); err == nil {
		t.Fatal("Compact on a closed cache must fail")
	}
}
