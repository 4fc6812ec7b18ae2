package sweep

import (
	"testing"

	"swex/internal/machine"
	"swex/internal/proto"
)

// TestProgramRefResolve covers every workload name a job can carry beside
// the six applications, plus the names and sizes Resolve must reject.
func TestProgramRefResolve(t *testing.T) {
	cases := []struct {
		ref     ProgramRef
		want    string // resolved program name; "" = Resolve must fail
		comment string
	}{
		{ProgramRef{App: WorkerName, SetSize: 4, Iters: 2, CICO: true}, "WORKER", "WORKER with check-in annotations"},
		{ProgramRef{App: HomeShareName}, "home-share", "local-bit ablation workload"},
		{ProgramRef{App: TokenRingName, Iters: 3}, "token-ring", "migratory ablation workload"},
		{ProgramRef{App: MissStreamName, Iters: 12}, "miss-stream", "multithreading ablation workload"},
		{ProgramRef{App: "EVOLVE", Quick: true, FullMapRegion: "fitness-table"}, "EVOLVE", "data-specific ablation workload"},
		{ProgramRef{App: TokenRingName}, "", "token ring without laps"},
		{ProgramRef{App: MissStreamName, Iters: -1}, "", "miss stream with negative length"},
		{ProgramRef{App: "no-such-program"}, "", "unknown name"},
	}
	for _, tc := range cases {
		prog, err := tc.ref.Resolve()
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%s: Resolve(%+v) succeeded, want an error", tc.comment, tc.ref)
		case tc.want != "" && err != nil:
			t.Errorf("%s: Resolve(%+v): %v", tc.comment, tc.ref, err)
		case tc.want != "" && prog.Name != tc.want:
			t.Errorf("%s: Resolve(%+v) = %q, want %q", tc.comment, tc.ref, prog.Name, tc.want)
		}
	}
}

// TestExecuteAppliesProgramOptions checks that the ablation fields of a
// ProgramRef reach the simulation: CICO changes WORKER's run, a full-map
// region removes the overflow traps its blocks caused, and an unknown
// region is an error rather than a silent no-op.
func TestExecuteAppliesProgramOptions(t *testing.T) {
	run := func(j Job) Result {
		t.Helper()
		res, err := Execute(j, 0)
		if err != nil {
			t.Fatalf("%s: %v", j, err)
		}
		return res
	}

	plain := WorkerJob(3, 2, machine.Config{Nodes: 4, Spec: proto.OnePointer(proto.AckLACK)})
	cico := plain
	cico.Program.CICO = true
	if p, c := run(plain), run(cico); p.Traps == c.Traps && p.Time == c.Time {
		t.Errorf("CICO run matches the plain run (%d traps, %d cycles)", p.Traps, p.Time)
	}

	base := AppJob("EVOLVE", true, machine.Config{Nodes: 8, Spec: proto.LimitLESS(2), VictimLines: 8})
	promoted := base
	promoted.Program.FullMapRegion = "fitness-table"
	if b, p := run(base), run(promoted); p.Traps >= b.Traps {
		t.Errorf("full-map fitness table: %d traps, want fewer than the baseline's %d", p.Traps, b.Traps)
	}

	bogus := base
	bogus.Program.FullMapRegion = "no-such-region"
	if _, err := Execute(bogus, 0); err == nil {
		t.Error("unknown full-map region executed without error")
	}
}
