package sweep

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/proto"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/job_keys.golden")

// pinnedKeyJob is one representative job whose key bytes are pinned.
type pinnedKeyJob struct {
	name string
	salt string
	job  Job
}

// pinnedKeyJobs covers every kind of field Key renders: strings, bools,
// ints, enums and the cycle limit.
func pinnedKeyJobs(t *testing.T) []pinnedKeyJob {
	t.Helper()
	h1ack, err := litmus.SpecByAlias("h1ack")
	if err != nil {
		t.Fatal(err)
	}
	worker := WorkerJob(8, 10, machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), ThreadsPerNode: 2})
	worker.Program.CICO = true
	region := AppJob("EVOLVE", true, machine.Config{Nodes: 16, Spec: proto.LimitLESS(2), VictimLines: 8})
	region.Program.FullMapRegion = "fitness-table"
	return []pinnedKeyJob{
		{"salted litmus", "branch-x", LitmusJob(litmus.Corpus()[0].Prog, machine.DefaultConfig(4, h1ack))},
		{"worker", "", worker},
		{"quick tsp", "", AppJob("TSP", true, machine.Config{
			Nodes: 16, Spec: proto.FullMap(), VictimLines: 8, PerfectIfetch: true, CacheLines: 512, CacheWays: 2,
		})},
		{"software-only", "", AppJob("WATER", true, machine.Config{Nodes: 16, Spec: proto.SoftwareOnly()})},
		{"broadcast", "", AppJob("AQ", true, machine.Config{Nodes: 8, Spec: proto.Dir1SW()})},
		{"full-map region", "", region},
		{"limited", "", Job{
			Program: ProgramRef{App: TokenRingName, Iters: 3},
			Config: machine.Config{
				Nodes: 4, Spec: proto.LimitLESS(5), Software: machine.TunedASM, BatchReads: true,
				ParallelInv: true, MigratoryDetect: true, LoseInv: 2,
			},
			Limit: 123456,
		}},
	}
}

// TestKeyBytesPinned holds Key and HashKey to testdata/job_keys.golden: a
// disk cache written by an earlier build stays valid only while the key
// bytes of every job are unchanged. Regenerate with -update only together
// with a codeVersion bump.
func TestKeyBytesPinned(t *testing.T) {
	var b strings.Builder
	for _, p := range pinnedKeyJobs(t) {
		key, err := p.job.Key(p.salt)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fmt.Fprintf(&b, "%s\n%s\n%s\n\n", p.name, key, HashKey(key))
	}
	path := filepath.Join("testdata", "job_keys.golden")
	if *updateKeys {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("job keys drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
