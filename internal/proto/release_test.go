package proto

import (
	"fmt"
	"testing"

	"swex/internal/mem"
	"swex/internal/sim"
)

// releaseSpecs span every kind of controller state: hardware and software
// directories, acknowledgment traps and broadcast.
var releaseSpecs = []Spec{
	FullMap(), LimitLESS(2), OnePointer(AckLACK), OnePointer(AckSW),
	SoftwareOnly(), Dir1SW(),
}

const releaseNodes = 4

// freshRig is newRig with controllers newly made, bypassing the pool.
func freshRig(t *testing.T, spec Spec) *rig {
	r := newRig(t, releaseNodes, spec)
	for i := range r.f.homes {
		r.f.homes[i] = newHomeCtl(r.f, mem.NodeID(i), releaseNodes)
		r.f.caches[i] = newCacheCtl(r.f, mem.NodeID(i), r.f.caches[i].cfg)
	}
	return r
}

// exerciseFabric issues ops seeded random operations, letting the engine
// run a random stretch after each, so transactions overlap, software
// traps and busy retries occur, watchers park, and work is left pending.
// Block 0's protocol may be overridden, the migratory detector and read
// batching may be on, and software handlers take a random time. It
// returns a log of every completion with its cycle.
func exerciseFabric(r *rig, rnd *sim.Rand, ops int) []string {
	r.f.BatchReads = rnd.Intn(2) == 0
	r.f.MigratoryDetect = rnd.Intn(2) == 0
	if soft, ok := r.f.Soft.(*NopSoftware); ok {
		// Handlers that take time keep read chains and parked writes
		// outstanding across operations.
		soft.FixedCost = sim.Cycle(rnd.Intn(80))
	}
	base := r.mem.AllocOn(0, 4*mem.WordsPerBlock)
	addrs := []mem.Addr{base, base + 1, base + mem.WordsPerBlock, base + 2*mem.WordsPerBlock + 3}
	if rnd.Intn(2) == 0 {
		if err := r.f.Home(0).Configure(mem.BlockOf(base), FullMap()); err != nil {
			r.t.Fatal(err)
		}
	}
	var log []string
	for i := 0; i < ops; i++ {
		n := mem.NodeID(rnd.Intn(releaseNodes))
		a := addrs[rnd.Intn(len(addrs))]
		op := Op{Done: func(v uint64) {
			log = append(log, fmt.Sprintf("op %d by %d on %d: %d at %d", i, n, a, v, r.engine.Now()))
		}}
		cc := r.f.Cache(n)
		switch k := rnd.Intn(6); {
		case k == 0:
			cc.Access(a, op)
		case k == 1:
			op.Write, op.Value = true, rnd.Uint64()%97
			cc.Access(a, op)
		case k == 2:
			op.Write, op.RMW = true, RMW{Kind: RMWAdd, Arg: 1}
			cc.Access(a, op)
		case k == 3:
			cc.CheckIn(a)
		case k == 4:
			cc.CheckOut(a, op)
		case k == 5:
			cc.Watch(a, rnd.Uint64()%3, op)
		}
		r.engine.Run(r.engine.Now() + sim.Cycle(rnd.Intn(60)))
	}
	return log
}

// settle runs the rig to quiescence and appends its observable state to
// log: the snapshot of the exercised blocks, the counters, every
// controller statistic, and the worker-set histogram.
func settle(r *rig, log []string) []string {
	r.engine.Run(0)
	blocks := make([]mem.Block, 0, 8)
	for b := mem.Block(0); b < 8; b++ {
		blocks = append(blocks, b)
	}
	log = append(log, fmt.Sprintf("cycle %d snapshot %x", r.engine.Now(), r.f.Snapshot(blocks)))
	log = append(log, r.f.Counters.String())
	for i := range r.f.homes {
		h, cc := r.f.homes[i], r.f.caches[i]
		log = append(log, fmt.Sprintf("node %d: traps %d busy %d stray %d srv %+v retries %d stall %d cache %+v",
			i, h.Traps, h.BusySent, h.StrayAcks, h.srv, cc.Retries, cc.IfetchStall, cc.c.Stats))
	}
	return append(log, fmt.Sprintf("worker sets %v", r.f.WorkerSetHist()))
}

// Property: after Fabric.Release, the next fabric of the same node count,
// under any protocol, is indistinguishable from one on newly made
// controllers: a second random workload produces the same completions,
// snapshot, counters and statistics on both.
func TestReleasedControllersAreFresh(t *testing.T) {
	reused := 0
	for seed := uint64(1); seed <= 100; seed++ {
		rnd := sim.NewRand(seed)
		first := releaseSpecs[rnd.Intn(len(releaseSpecs))]
		next := releaseSpecs[rnd.Intn(len(releaseSpecs))]

		r := newRig(t, releaseNodes, first)
		released := r.f.homes[0]
		exerciseFabric(r, rnd, 1+rnd.Intn(80))
		r.f.Release()
		r.engine.Release()

		got := newRig(t, releaseNodes, next)
		if got.f.homes[0] == released {
			reused++
		}
		want := freshRig(t, next)
		replay := rnd.Uint64()
		gotLog := settle(got, exerciseFabric(got, sim.NewRand(replay), 80))
		wantLog := settle(want, exerciseFabric(want, sim.NewRand(replay), 80))
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d (%s after %s): %d log lines on reused controllers, %d on new ones",
				seed, next.Name, first.Name, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d (%s after %s): line %d on reused controllers:\n%s\nnew controllers:\n%s",
					seed, next.Name, first.Name, i, gotLog[i], wantLog[i])
			}
		}
		got.f.Release()
		got.engine.Release()
	}
	// The pool may drop controllers (a GC cycle, or the race detector's
	// deliberate drops); the property is only tested when it does not.
	if reused == 0 {
		t.Fatal("no fabric reused released controllers")
	}
}

// TestReleasedFabricPanics requires every use of a released fabric's
// controllers, and a second Release, to panic.
func TestReleasedFabricPanics(t *testing.T) {
	uses := map[string]func(f *Fabric){
		"Access":  func(f *Fabric) { f.Cache(1).Access(0, Op{}) },
		"Deliver": func(f *Fabric) { f.Home(0).Deliver(&Msg{Kind: MsgRREQ, Src: 1}) },
		"Release": func(f *Fabric) { f.Release() },
	}
	for name, use := range uses {
		r := newRig(t, releaseNodes, LimitLESS(2))
		r.read(1, r.mem.AllocOn(0, 1))
		r.f.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released fabric did not panic", name)
				}
			}()
			use(r.f)
		}()
	}
}
