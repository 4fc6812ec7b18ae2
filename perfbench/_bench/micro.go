package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"swex/internal/cache"
	"swex/internal/dir"
	"swex/internal/ext"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/memtier"
	"swex/internal/mesh"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/sweep"
)

// The microbenchmarks: one fixed synthetic loop per layer, timing that
// layer's public calls. Address, node and delay streams come from the
// seed; the work per batch is fixed, so a faster layer shows as fewer ns
// per operation.

// microBatches is how many batches each microbenchmark times; it reports the
// median batch.
const microBatches = 5

var objSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// heapObjects counts heap allocations so far, tiny ones included, as
// testing's allocs/op does.
func heapObjects() uint64 {
	metrics.Read(objSamples)
	return objSamples[0].Value.Uint64() + objSamples[1].Value.Uint64()
}

// measure times microBatches batches of ops operations. build, untimed,
// prepares one batch's fresh state and returns the batch. The result is
// the median host ns per operation, scaled to the reference host speed
// (see calibrate.go), and the mean allocations per operation.
func measure(ops int, build func() func()) (ns, allocs float64) {
	per := make([]float64, microBatches)
	var objs uint64
	for b := range per {
		batch := build()
		runtime.GC()
		o0 := heapObjects()
		t0 := time.Now()
		batch()
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		objs += heapObjects() - o0
	}
	return medianOf(per) * hostScale(), float64(objs) / float64(ops*microBatches)
}

// ticker is a self-rescheduling engine event: each firing schedules the
// next after a delay from a seeded table, so the queue depth stays at the
// number of tickers.
type ticker struct {
	e      *sim.Engine
	delays []sim.Cycle
	k      int
}

func (t *ticker) Fire() {
	t.k++
	t.e.AfterCall(t.delays[t.k%len(t.delays)], nil, t)
}

// scheduleFire times Engine.Step on a queue held at depth pending events.
func scheduleFire(seed uint64, depth int) (ns, allocs float64) {
	r := sim.NewRand(seed)
	delays := make([]sim.Cycle, 1024)
	for i := range delays {
		delays[i] = sim.Cycle(1 + r.Intn(64))
	}
	const ops = 200_000
	return measure(ops, func() func() {
		e := sim.NewEngine()
		for i := 0; i < depth; i++ {
			t := &ticker{e: e, delays: delays, k: i * 7}
			e.AfterCall(delays[t.k%len(delays)], nil, t)
		}
		return func() {
			for i := 0; i < ops; i++ {
				e.Step()
			}
		}
	})
}

// microbenchmarks runs every microbenchmark and returns its metrics.
func microbenchmarks(seed uint64) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	r := sim.NewRand(seed)

	ns64, allocs := scheduleFire(seed, 64)
	ns4096, _ := scheduleFire(seed, 4096)
	ns1, _ := scheduleFire(seed, 1)
	put("sim.schedule_fire_ns.d64", ns64, "ns")
	put("sim.schedule_fire_ns.d4096", ns4096, "ns")
	put("sim.schedule_fire_allocs", allocs, "count")

	// Thread handoff: a 1-node machine's thread computing one cycle at a
	// time, less the engine's cost for the events those operations fire.
	{
		const ops = 20_000
		var fired uint64
		ns, allocs := measure(ops, func() func() {
			m := machine.MustNew(machine.Config{Nodes: 1, Spec: proto.FullMap(), PerfectIfetch: true})
			return func() {
				_, err := m.Run(func(env *proc.Env) {
					for i := 0; i < ops; i++ {
						env.Compute(1)
					}
				}, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: handoff microbenchmark: %v\n", err)
				}
				fired = m.Engine.Fired()
			}
		})
		put("proc.handoff_ns", ns-float64(fired)/ops*ns1, "ns")
		put("proc.handoff_allocs", allocs, "count")
	}

	// Cache: hits on a full cache, misses that insert over a seeded
	// stream of conflicting blocks, and construction.
	{
		const ops = 1 << 20
		idx := make([]mem.Block, 4096)
		far := make([]mem.Block, 4096)
		for i := range idx {
			idx[i] = mem.Block(r.Intn(4096))
			far[i] = mem.Block(r.Intn(1 << 24))
		}
		ns, _ := measure(ops, func() func() {
			c := cache.New(cache.DefaultConfig())
			for b := 0; b < 4096; b++ {
				c.Insert(cache.Line{Block: mem.Block(b), State: cache.Shared})
			}
			return func() {
				for i := 0; i < ops; i++ {
					c.Lookup(idx[i%len(idx)], false)
				}
			}
		})
		put("cache.lookup_hit_ns", ns, "ns")
		ns, _ = measure(ops, func() func() {
			c := cache.New(cache.DefaultConfig())
			return func() {
				for i := 0; i < ops; i++ {
					b := far[i%len(far)] + mem.Block(i)
					if _, ok := c.Lookup(b, false); !ok {
						c.Insert(cache.Line{Block: b, State: cache.Shared})
					}
				}
			}
		})
		put("cache.miss_insert_ns", ns, "ns")
	}
	{
		const ops = 200
		sink := make([]*cache.Cache, ops)
		ns, _ := measure(ops, func() func() {
			return func() {
				for i := range sink {
					sink[i] = cache.New(cache.DefaultConfig())
				}
			}
		})
		put("cache.new_us", ns/1e3, "us")
	}
	{
		const ops = 100
		sink := make([]*machine.Machine, ops)
		ns, allocs := measure(ops, func() func() {
			return func() {
				for i := range sink {
					sink[i] = machine.MustNew(machine.DefaultConfig(4, proto.FullMap()))
				}
			}
		})
		put("machine.new_us.n4", ns/1e3, "us")
		put("machine.new_allocs", allocs, "count")
	}

	// Remote misses: node 0 reads or writes fresh blocks homed on node 1,
	// in a seeded order, draining the engine after each.
	for _, pt := range []struct {
		name string
		spec proto.Spec
	}{{"full", proto.FullMap()}, {"h5", proto.LimitLESS(5)}, {"h0", proto.SoftwareOnly()}} {
		for _, write := range []bool{false, true} {
			ns := remoteMiss(r, pt.spec, write)
			kind := "read"
			if write {
				kind = "write"
			}
			put("proto."+kind+"_miss_ns."+pt.name, ns, "ns")
		}
	}

	// Software handlers at 16 sharers: sixteen read-overflow traps build
	// each block's software sharer list, one write fault frees it.
	{
		const blocks, sharers = 2000, 16
		type target struct {
			b       mem.Block
			readers []mem.NodeID
			writer  mem.NodeID
		}
		ts := make([]target, blocks)
		for i := range ts {
			home := r.Intn(64)
			perm := r.Perm(63)
			t := target{b: mem.BlockOf(mem.SegBase(mem.NodeID(home)) + mem.Addr(4*r.Intn(1<<16)))}
			for _, p := range perm[:sharers+1] {
				n := mem.NodeID((home + 1 + p) % 64)
				t.readers = append(t.readers, n)
			}
			t.writer, t.readers = t.readers[sharers], t.readers[:sharers]
			ts[i] = t
		}
		newHandlers := func() *ext.Handlers {
			h, err := ext.New(64, proto.SoftwareOnly(), ext.FlexibleC())
			if err != nil {
				panic(fmt.Sprintf("ext.New rejected a fixed valid configuration: %v", err))
			}
			return h
		}
		reads := func(h *ext.Handlers) {
			for _, t := range ts {
				for _, n := range t.readers {
					h.ReadOverflow(t.b, nil, n)
				}
			}
		}
		readNS, readAllocs := measure(blocks*sharers, func() func() {
			h := newHandlers()
			return func() { reads(h) }
		})
		writeNS, writeAllocs := measure(blocks, func() func() {
			h := newHandlers()
			reads(h)
			return func() {
				for _, t := range ts {
					h.WriteFault(t.b, t.writer, sharers)
				}
			}
		})
		put("ext.read_overflow_ns", readNS, "ns")
		put("ext.write_fault_ns", writeNS, "ns")
		put("ext.allocs", (readAllocs*sharers+writeAllocs)/(sharers+1), "count")
	}

	// Mesh: seeded point-to-point sends on a 64-node mesh, delivered in
	// rounds of 64; the cost includes firing each delivery.
	{
		const ops = 200_000
		pairs := make([][2]int, 4096)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(64), r.Intn(64)}
		}
		ns, allocs := measure(ops, func() func() {
			e := sim.NewEngine()
			net := mesh.New(e, mesh.DefaultConfig(64))
			var sink nopCaller
			return func() {
				for i := 0; i < ops; i++ {
					p := pairs[i%len(pairs)]
					net.SendCall(p[0], p[1], 3, 0, nil, &sink)
					if i%64 == 63 {
						e.Run(0)
					}
				}
				e.Run(0)
			}
		})
		put("mesh.send_ns", ns, "ns")
		put("mesh.send_allocs", allocs, "count")
	}

	// Directory pointers: fill a five-pointer set from a seeded node
	// stream and drain it, as a LimitLESS-5 overflow does.
	{
		const ops = 200_000
		ids := make([]mem.NodeID, 4096)
		for i := range ids {
			ids[i] = mem.NodeID(r.Intn(64))
		}
		ns, _ := measure(ops, func() func() {
			p := dir.NewPointerSet(5)
			return func() {
				for i := 0; i < ops; i++ {
					for j := 0; j < 5; j++ {
						p.Add(ids[(5*i+j)%len(ids)])
					}
					p.Drain()
				}
			}
		})
		put("dir.add_drain_ns", ns, "ns")
	}

	// Memory tiers: directory-side accesses over a seeded block stream.
	for _, tier := range []struct {
		name string
		cfg  memtier.Config
	}{{"disaggregated", memtier.DefaultDisaggregated()}, {"tiered", memtier.DefaultTiered()}} {
		const ops = 1 << 20
		type access struct {
			home  mem.NodeID
			b     mem.Block
			write bool
		}
		as := make([]access, 4096)
		for i := range as {
			as[i] = access{mem.NodeID(r.Intn(16)), mem.Block(r.Intn(4096)), r.Intn(4) == 0}
		}
		ns, _ := measure(ops, func() func() {
			m := memtier.New(sim.NewEngine(), 16, tier.cfg)
			return func() {
				for i := 0; i < ops; i++ {
					a := as[i%len(as)]
					m.Access(a.home, a.b, a.write)
				}
			}
		})
		put("memtier.access_ns."+tier.name, ns, "ns")
	}

	put("proto.snapshot_us", snapshot(r)/1e3, "us")

	// Litmus and sweep: generation, the SC oracle over observations from
	// real full-map runs, and job keying.
	{
		gen := litmus.GenConfig{SpecAliases: []string{"h1ack", "dir1sw"}}
		const ops = 5000
		ns, _ := measure(ops, func() func() {
			gr := sim.NewRand(r.Uint64())
			return func() {
				for i := 0; i < ops; i++ {
					litmus.Generate(gr, gen)
				}
			}
		})
		put("litmus.generate_us", ns/1e3, "us")

		var ps []litmus.Program
		var obs [][][]uint64
		var jobs []sweep.Job
		gr := sim.NewRand(r.Uint64())
		for i := 0; i < 200; i++ {
			p := litmus.Generate(gr, litmus.GenConfig{})
			job := sweep.LitmusJob(p, machine.DefaultConfig(campaignNodes, proto.FullMap()))
			res, err := sweep.Execute(job, cycleLimit)
			if err != nil {
				continue
			}
			o, err := litmus.ThreadObs(p, res.Obs, 0)
			if err != nil {
				continue
			}
			ps, obs, jobs = append(ps, p), append(obs, o), append(jobs, job)
		}
		if len(ps) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: no litmus program ran; skipping the oracle and key microbenchmarks\n")
			return out
		}
		ns, _ = measure(2000, func() func() {
			return func() {
				for i := 0; i < 2000; i++ {
					litmus.CheckSC(ps[i%len(ps)], obs[i%len(ps)])
				}
			}
		})
		put("litmus.check_sc_us", ns/1e3, "us")
		ns, _ = measure(20_000, func() func() {
			return func() {
				for i := 0; i < 20_000; i++ {
					jobs[i%len(jobs)].Key("")
				}
			}
		})
		put("sweep.key_us", ns/1e3, "us")
	}
	return out
}

type nopCaller struct{}

func (*nopCaller) Fire() {}

// remoteMiss times node 0's misses to fresh blocks homed on node 1 of a
// 2-node machine under spec, in a seeded order.
func remoteMiss(r *sim.Rand, spec proto.Spec, write bool) float64 {
	const ops = 2000
	perm := r.Perm(ops)
	completed := 0
	done := func(uint64) { completed++ }
	ns, _ := measure(ops, func() func() {
		m := machine.MustNew(machine.DefaultConfig(2, spec))
		addrs := make([]mem.Addr, ops)
		for i := range addrs {
			addrs[i] = m.Mem.AllocOn(1, mem.WordsPerBlock)
		}
		cc := m.Fabric.Cache(0)
		return func() {
			for i, k := range perm {
				cc.Access(addrs[k], proto.Op{Write: write, Value: uint64(i) + 1, Done: done})
				m.Engine.Run(0)
			}
		}
	})
	if completed != ops*microBatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s miss microbenchmark completed %d of %d operations\n", spec.Name, completed, ops*microBatches)
	}
	return ns
}

// snapshot times Fabric.Snapshot on a 2-node LimitLESS-5 machine holding a
// shared block and an exclusive one, with a write still in flight.
func snapshot(r *sim.Rand) float64 {
	m := machine.MustNew(machine.DefaultConfig(2, proto.LimitLESS(5)))
	a := []mem.Addr{m.Mem.AllocOn(0, mem.WordsPerBlock), m.Mem.AllocOn(1, mem.WordsPerBlock)}
	blocks := []mem.Block{mem.BlockOf(a[0]), mem.BlockOf(a[1])}
	nop := func(uint64) {}
	for _, n := range []mem.NodeID{0, 1} {
		m.Fabric.Cache(n).Access(a[0], proto.Op{Done: nop})
		m.Engine.Run(0)
	}
	m.Fabric.Cache(1).Access(a[1], proto.Op{Write: true, Value: 1 + uint64(r.Intn(100)), Done: nop})
	m.Engine.Run(0)
	m.Fabric.Cache(0).Access(a[1], proto.Op{Write: true, Value: 200, Done: nop})
	const ops = 2000
	ns, _ := measure(ops, func() func() {
		return func() {
			for i := 0; i < ops; i++ {
				m.Fabric.Snapshot(blocks)
			}
		}
	})
	return ns
}
