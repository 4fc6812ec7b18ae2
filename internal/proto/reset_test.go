package proto

import (
	"fmt"
	"testing"

	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/sim"
)

// resetSpecs span every kind of controller state: hardware and software
// directories, acknowledgment traps and broadcast.
var resetSpecs = []Spec{
	FullMap(), LimitLESS(2), OnePointer(AckLACK), OnePointer(AckSW),
	SoftwareOnly(), Dir1SW(),
}

// resetNodes are the machine sizes a reset moves between, so a reset
// keeps some controllers and builds or drops others.
var resetNodes = []int{2, 4, 8}

// resetRig resets r's engine, network, memory and fabric in place to a
// nodes-node machine running spec, as newRig would build it: the fabric
// first, so it takes back the receivers its engine still holds.
func resetRig(r *rig, nodes int, spec Spec) {
	var soft Software
	if spec.UsesSoftware() {
		soft = NewNopSoftware()
	}
	net := r.f.Net
	net.Reset(r.engine, mesh.DefaultConfig(nodes))
	r.mem.Reset(nodes)
	if err := r.f.Reset(r.engine, net, r.mem, spec, DefaultTiming(), soft, r.f.caches[0].cfg); err != nil {
		r.t.Fatal(err)
	}
	r.engine.Reset()
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
		n := mem.NodeID(rnd.Intn(r.f.Nodes()))
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

// Property: after Fabric.Reset, under any protocol and machine size, a
// fabric is indistinguishable from a new one: a second random workload
// produces the same completions, snapshot, counters and statistics on
// both, however much work the first left pending.
func TestResetFabricIsFresh(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rnd := sim.NewRand(seed)
		first, firstN := resetSpecs[rnd.Intn(len(resetSpecs))], resetNodes[rnd.Intn(len(resetNodes))]
		next, nextN := resetSpecs[rnd.Intn(len(resetSpecs))], resetNodes[rnd.Intn(len(resetNodes))]

		got := newRig(t, firstN, first)
		home := got.f.homes[0]
		exerciseFabric(got, rnd, 1+rnd.Intn(80))
		resetRig(got, nextN, next)
		if got.f.homes[0] != home {
			t.Fatalf("seed %d: Reset replaced node 0's home controller", seed)
		}
		want := newRig(t, nextN, next)
		replay := rnd.Uint64()
		gotLog := settle(got, exerciseFabric(got, sim.NewRand(replay), 80))
		wantLog := settle(want, exerciseFabric(want, sim.NewRand(replay), 80))
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d (%s on %d nodes after %s on %d): %d log lines after Reset, %d on a new fabric",
				seed, next.Name, nextN, first.Name, firstN, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d (%s on %d nodes after %s on %d): line %d after Reset:\n%s\nnew fabric:\n%s",
					seed, next.Name, nextN, first.Name, firstN, i, gotLog[i], wantLog[i])
			}
		}
	}
}
