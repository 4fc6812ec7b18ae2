package litmus

import (
	"strings"
	"testing"

	"swex/internal/sim"
)

// both runs the two decision procedures and fails unless they agree.
func both(t *testing.T, p Program, obs [][]uint64) Verdict {
	t.Helper()
	ve, err := CheckExhaustive(p, obs)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	vc, err := CheckConstraints(p, obs)
	if err != nil {
		t.Fatalf("constraints: %v", err)
	}
	if ve.OK != vc.OK {
		t.Fatalf("paths disagree on %s obs %v: exhaustive %v, constraints %v (witness %q)",
			p, obs, ve.OK, vc.OK, vc.Witness)
	}
	return vc
}

func TestLitmusVerdicts(t *testing.T) {
	cases := []struct {
		name string
		prog string
		obs  [][]uint64
		ok   bool
	}{
		{"SB both zero", "v2;t0:W0:1,R1;t1:W1:2,R0", [][]uint64{{0}, {0}}, false},
		{"SB both new", "v2;t0:W0:1,R1;t1:W1:2,R0", [][]uint64{{2}, {1}}, true},
		{"SB one zero", "v2;t0:W0:1,R1;t1:W1:2,R0", [][]uint64{{0}, {1}}, true},
		{"MP flag without data", "v2;t0:W0:1,W1:2;t1:R1,R0", [][]uint64{{}, {2, 0}}, false},
		{"MP flag and data", "v2;t0:W0:1,W1:2;t1:R1,R0", [][]uint64{{}, {2, 1}}, true},
		{"MP neither", "v2;t0:W0:1,W1:2;t1:R1,R0", [][]uint64{{}, {0, 0}}, true},
		{"MP data early", "v2;t0:W0:1,W1:2;t1:R1,R0", [][]uint64{{}, {0, 1}}, true},
		{"IRIW disagree on order", "v2;t0:W0:1;t1:W1:2;t2:R0,R1;t3:R1,R0", [][]uint64{{}, {}, {1, 0}, {2, 0}}, false},
		{"IRIW agree on order", "v2;t0:W0:1;t1:W1:2;t2:R0,R1;t3:R1,R0", [][]uint64{{}, {}, {1, 0}, {2, 1}}, true},
		{"CoRR new then old", "v1;t0:W0:1;t1:R0,R0", [][]uint64{{}, {1, 0}}, false},
		{"CoRR old then new", "v1;t0:W0:1;t1:R0,R0", [][]uint64{{}, {0, 1}}, true},
		{"CoRR stable", "v1;t0:W0:1;t1:R0,R0", [][]uint64{{}, {1, 1}}, true},
		{"WRC causality dropped", "v2;t0:W0:1;t1:R0,W1:2;t2:R1,R0", [][]uint64{{}, {1}, {2, 0}}, false},
		{"WRC causality kept", "v2;t0:W0:1;t1:R0,W1:2;t2:R1,R0", [][]uint64{{}, {1}, {2, 1}}, true},
		{"RMW both observe zero", "v1;t0:X0:1;t1:X0:2", [][]uint64{{0}, {0}}, false},
		{"RMW mutual observation", "v1;t0:X0:1;t1:X0:2", [][]uint64{{2}, {1}}, false},
		{"RMW serialized", "v1;t0:X0:1;t1:X0:2", [][]uint64{{0}, {1}}, true},
		{"RMW serialized other way", "v1;t0:X0:1;t1:X0:2", [][]uint64{{2}, {0}}, true},
		{"thin air", "v2;t0:W0:1,W1:2;t1:R1,R0", [][]uint64{{}, {5, 0}}, false},
		{"cross-variable value", "v2;t0:W0:1,W1:2;t1:R1,R0", [][]uint64{{}, {1, 0}}, false},
		{"fence and compute ignored", "v2;t0:W0:1,F0,C100,W1:2;t1:R1,C50,R0", [][]uint64{{}, {2, 1}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustParse(tc.prog)
			v := both(t, p, tc.obs)
			if v.OK != tc.ok {
				t.Fatalf("verdict %v, want %v (witness %q)", v.OK, tc.ok, v.Witness)
			}
			if !v.OK && v.Witness == "" {
				t.Fatal("violation verdict carries no witness")
			}
		})
	}
}

func TestWeakenedOutcomeWitnessCycle(t *testing.T) {
	// The weakened fixture's forbidden outcome must produce a printable
	// constraint cycle naming the flag read and the stale data read.
	p, _ := WeakenedFixture(4)
	obs := [][]uint64{{}, {0, 2, 0}}
	v, err := CheckConstraints(p, obs)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("lost-invalidation outcome judged sequentially consistent")
	}
	if !strings.Contains(v.Witness, "cycle") {
		t.Fatalf("witness does not show the constraint cycle: %q", v.Witness)
	}
	for _, frag := range []string{"R(v1)=2", "R(v0)=0", "W(v0)=1"} {
		if !strings.Contains(v.Witness, frag) {
			t.Fatalf("witness %q does not mention %s", v.Witness, frag)
		}
	}
}

func TestCheckSCPicksBothPaths(t *testing.T) {
	// Small program: exhaustive path. Large program (> exhaustiveLimit
	// semantic ops): constraint path. Both must judge correctly, and a
	// failed verdict's witness names the procedure that decided it.
	small := MustParse("v2;t0:W0:1,R1;t1:W1:2,R0")
	if v, err := CheckSC(small, [][]uint64{{0}, {0}}); err != nil || v.OK {
		t.Fatalf("small forbidden: verdict %+v err %v", v, err)
	} else if !strings.HasPrefix(v.Witness, "exhaustive interleaving search: ") {
		t.Fatalf("small forbidden: witness %q is not the exhaustive search's note", v.Witness)
	}
	large := MustParse("v2;t0:W0:1,W1:2,W0:3,W1:4,W0:5,W1:6;t1:R1,R0,R1,R0,R1,R0")
	if v, err := CheckSC(large, [][]uint64{{}, {2, 1, 4, 3, 6, 5}}); err != nil || !v.OK {
		t.Fatalf("large allowed: verdict %+v err %v", v, err)
	}
	if v, err := CheckSC(large, [][]uint64{{}, {2, 1, 4, 3, 6, 3}}); err != nil || v.OK {
		t.Fatalf("large stale reread: verdict %+v err %v", v, err)
	} else if !strings.HasPrefix(v.Witness, "unsatisfiable constraint cycle: ") {
		t.Fatalf("large stale reread: witness %q is not a constraint cycle", v.Witness)
	}
}

func TestObservationShapeErrors(t *testing.T) {
	p := MustParse("v2;t0:W0:1;t1:R0,R1")
	if _, err := CheckSC(p, [][]uint64{{}}); err == nil {
		t.Error("missing thread list accepted")
	}
	if _, err := CheckSC(p, [][]uint64{{}, {0}}); err == nil {
		t.Error("short observation list accepted")
	}
	if _, err := CheckSC(p, [][]uint64{{}, {0, 0, 0}}); err == nil {
		t.Error("long observation list accepted")
	}
	if _, err := CheckSC(p, [][]uint64{{7}, {0, 0}}); err == nil {
		t.Error("observations on a non-observing thread accepted")
	}
}

// plausibleObs draws random observations for p: each observing operation
// sees either zero or one of the program's written values. Most draws are
// not SC — the point is that both decision procedures agree either way.
func plausibleObs(r *sim.Rand, p Program) [][]uint64 {
	var vals []uint64
	for _, ops := range p.Threads {
		for _, op := range ops {
			if op.Kind == OpWrite || op.Kind == OpRMW {
				vals = append(vals, op.Arg)
			}
		}
	}
	obs := make([][]uint64, len(p.Threads))
	for t := range p.Threads {
		obs[t] = make([]uint64, 0, p.ObsCount(t))
		for i := 0; i < p.ObsCount(t); i++ {
			if len(vals) == 0 || r.Intn(3) == 0 {
				obs[t] = append(obs[t], 0)
			} else {
				obs[t] = append(obs[t], vals[r.Intn(len(vals))])
			}
		}
	}
	return obs
}

func TestCrossValidatePaths(t *testing.T) {
	// The two decision procedures are both exact, so on any program and
	// any observation set they must agree. Drive them with hundreds of
	// random programs and random (mostly non-SC) observations.
	r := sim.NewRand(20260808)
	agree, violations := 0, 0
	for i := 0; i < 400; i++ {
		p := Generate(r, GenConfig{Threads: 1 + r.Intn(3), Vars: 1 + r.Intn(2), Ops: 1 + r.Intn(4)})
		obs := plausibleObs(r, p)
		v := both(t, p, obs)
		agree++
		if !v.OK {
			violations++
		}
	}
	if violations == 0 {
		t.Error("random observations never violated SC; the cross-validation is vacuous")
	}
	t.Logf("%d programs cross-validated, %d non-SC observation sets", agree, violations)
}

func FuzzCheckAgreement(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(42))
	f.Add(uint64(20261994))
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := sim.NewRand(seed)
		p := Generate(r, GenConfig{Threads: 1 + r.Intn(3), Vars: 1 + r.Intn(2), Ops: 1 + r.Intn(4)})
		obs := plausibleObs(r, p)
		ve, errE := CheckExhaustive(p, obs)
		vc, errC := CheckConstraints(p, obs)
		if (errE == nil) != (errC == nil) {
			t.Fatalf("error disagreement: exhaustive %v, constraints %v", errE, errC)
		}
		if errE == nil && ve.OK != vc.OK {
			t.Fatalf("verdict disagreement on %s obs %v: exhaustive %v, constraints %v",
				p, obs, ve.OK, vc.OK)
		}
	})
}
