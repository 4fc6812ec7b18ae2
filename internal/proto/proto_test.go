package proto

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"swex/internal/dir"

	"swex/internal/cache"
	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/sim"
)

// rig is a minimal machine for protocol-level tests: fabric + zero-cost
// software + the trap scheduler, no processor model.
type rig struct {
	t      *testing.T
	engine *sim.Engine
	mem    *mem.Memory
	f      *Fabric
}

func newRig(t *testing.T, nodes int, spec Spec) *rig {
	t.Helper()
	engine := sim.NewEngine()
	net := mesh.New(engine, mesh.DefaultConfig(nodes))
	memory := mem.New(nodes)
	var soft Software
	if spec.UsesSoftware() {
		soft = NewNopSoftware()
	}
	cfg := CacheConfig{Cache: cache.Config{Lines: 64, VictimLines: 0}, PerfectIfetch: true}
	f, err := NewFabric(engine, net, memory, spec, DefaultTiming(), soft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, engine: engine, mem: memory, f: f}
}

// read performs a blocking read from node n and returns the value.
func (r *rig) read(n mem.NodeID, a mem.Addr) uint64 {
	var got uint64
	done := false
	r.f.Cache(n).Access(a, Op{Done: func(v uint64) { got = v; done = true }})
	if !r.engine.RunUntil(func() bool { return done }, 1_000_000) {
		r.t.Fatalf("read by node %d of %d did not complete", n, a)
	}
	return got
}

// write performs a blocking write from node n.
func (r *rig) write(n mem.NodeID, a mem.Addr, v uint64) {
	done := false
	r.f.Cache(n).Access(a, Op{Write: true, Value: v, Done: func(uint64) { done = true }})
	if !r.engine.RunUntil(func() bool { return done }, 1_000_000) {
		r.t.Fatalf("write by node %d of %d did not complete", n, a)
	}
}

// fire adapts a func to sim.Caller for tests.
type fire func()

func (f fire) Fire() { f() }

// rmw performs a blocking read-modify-write and returns the old value.
func (r *rig) rmw(n mem.NodeID, a mem.Addr, op RMW) uint64 {
	var old uint64
	done := false
	r.f.Cache(n).Access(a, Op{Write: true, RMW: op, Done: func(v uint64) { old = v; done = true }})
	if !r.engine.RunUntil(func() bool { return done }, 1_000_000) {
		r.t.Fatalf("rmw by node %d did not complete", n)
	}
	return old
}

func TestRemoteReadReturnsMemoryValue(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 99)
	if got := r.read(2, a); got != 99 {
		t.Fatalf("remote read = %d, want 99", got)
	}
	// Second read hits the cache: no new transaction.
	if got := r.read(2, a); got != 99 {
		t.Fatalf("cached read = %d, want 99", got)
	}
	if r.f.Cache(2).OutstandingTxns() != 0 {
		t.Fatal("transactions leaked")
	}
}

func TestWriteThenRemoteReadPropagates(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.write(1, a, 42)
	if got := r.read(2, a); got != 42 {
		t.Fatalf("read after remote write = %d, want 42 (recall path)", got)
	}
	if got := r.read(1, a); got != 42 {
		t.Fatalf("writer re-read = %d, want 42", got)
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	r := newRig(t, 8, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 7)
	for n := mem.NodeID(1); n < 8; n++ {
		if got := r.read(n, a); got != 7 {
			t.Fatalf("node %d initial read = %d", n, got)
		}
	}
	r.write(1, a, 8)
	for n := mem.NodeID(2); n < 8; n++ {
		if got := r.read(n, a); got != 8 {
			t.Fatalf("node %d read after invalidation = %d, want 8", n, got)
		}
	}
	// All readers' copies must have been invalidated and re-fetched.
	if r.f.Counters.Get("msg.INV") == 0 {
		t.Fatal("no invalidations sent")
	}
	if r.f.Counters.Get("msg.ACK") == 0 {
		t.Fatal("no acknowledgments received")
	}
}

func TestFullMapNeverTraps(t *testing.T) {
	r := newRig(t, 16, FullMap())
	a := r.mem.AllocOn(0, 1)
	for n := mem.NodeID(0); n < 16; n++ {
		r.read(n, a)
	}
	r.write(3, a, 1)
	if got := r.f.Counters.Get("home.traps"); got != 0 {
		t.Fatalf("full-map trapped %d times", got)
	}
}

func TestLimitLESSTrapsOnOverflow(t *testing.T) {
	r := newRig(t, 16, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	// Readers 1 and 2 fit the two pointers; reader 3 overflows.
	r.read(1, a)
	r.read(2, a)
	if got := r.f.Home(0).Traps; got != 0 {
		t.Fatalf("trapped %d times before overflow", got)
	}
	r.read(3, a)
	if got := r.f.Home(0).Traps; got != 1 {
		t.Fatalf("traps = %d after overflow, want 1", got)
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if !e.SwExt {
		t.Fatal("entry not marked software-extended")
	}
	if e.SwCount != 3 {
		t.Fatalf("SwCount = %d, want 3 (two drained + requester)", e.SwCount)
	}
	if e.Ptrs.Count() != 0 {
		t.Fatalf("hardware pointers not drained: %d", e.Ptrs.Count())
	}
	// Subsequent readers are handled in hardware until the next overflow.
	r.read(4, a)
	r.read(5, a)
	if got := r.f.Home(0).Traps; got != 1 {
		t.Fatalf("traps = %d, want still 1 (hardware absorbs refills)", got)
	}
	r.read(6, a)
	if got := r.f.Home(0).Traps; got != 2 {
		t.Fatalf("traps = %d after second overflow, want 2", got)
	}
}

func TestLimitLESSWriteInvalidatesSoftwareSharers(t *testing.T) {
	r := newRig(t, 16, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 5)
	for n := mem.NodeID(1); n <= 6; n++ {
		r.read(n, a)
	}
	r.write(7, a, 6)
	if r.f.Counters.Get("home.sw_invalidations") == 0 {
		t.Fatal("write fault sent no software invalidations")
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if e.SwExt {
		t.Fatal("software extension not reclaimed after write fault")
	}
	// Every one of the six readers must see the new value (re-reading
	// overflows and re-extends the directory, which is fine).
	for n := mem.NodeID(1); n <= 6; n++ {
		if got := r.read(n, a); got != 6 {
			t.Fatalf("node %d read %d after software write fault, want 6", n, got)
		}
	}
}

func TestLocalBitAvoidsPointerUse(t *testing.T) {
	r := newRig(t, 4, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	r.read(0, a) // home's own read
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if !e.LocalBit {
		t.Fatal("home read did not set the local bit")
	}
	if e.Ptrs.Count() != 0 {
		t.Fatal("home read consumed a hardware pointer")
	}
}

func TestLocalBitInvalidatedOnWrite(t *testing.T) {
	r := newRig(t, 4, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 1)
	r.read(0, a)
	r.write(2, a, 2)
	if got := r.read(0, a); got != 2 {
		t.Fatalf("home re-read = %d, want 2 (local copy must be invalidated)", got)
	}
}

func TestSoftwareOnlyLocalFastPath(t *testing.T) {
	r := newRig(t, 4, SoftwareOnly())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 3)
	if got := r.read(0, a); got != 3 {
		t.Fatalf("local read = %d, want 3", got)
	}
	if r.f.Home(0).Traps != 0 {
		t.Fatal("intra-node access trapped with remote bit clear")
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if e.RemoteBit {
		t.Fatal("remote bit set by local access")
	}
}

func TestSoftwareOnlyRemoteSetsBitAndTraps(t *testing.T) {
	r := newRig(t, 4, SoftwareOnly())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 3)
	r.read(0, a) // home caches it
	if got := r.read(1, a); got != 3 {
		t.Fatalf("remote read = %d, want 3", got)
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if !e.RemoteBit {
		t.Fatal("remote access did not set the remote bit")
	}
	if r.f.Home(0).Traps == 0 {
		t.Fatal("remote access did not trap")
	}
	// The home's own cached copy must have been flushed.
	if _, cached := r.f.Cache(0).HasBlock(mem.BlockOf(a)); cached {
		t.Fatal("home copy not flushed on first remote access")
	}
	// Once the bit is set, even local accesses trap.
	before := r.f.Home(0).Traps
	r.read(0, a)
	if r.f.Home(0).Traps == before {
		t.Fatal("intra-node access after remote bit did not trap")
	}
}

func TestSoftwareOnlyWriteCoherence(t *testing.T) {
	r := newRig(t, 8, SoftwareOnly())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 1)
	for n := mem.NodeID(1); n < 5; n++ {
		r.read(n, a)
	}
	r.write(5, a, 2)
	for n := mem.NodeID(1); n < 5; n++ {
		if got := r.read(n, a); got != 2 {
			t.Fatalf("node %d read %d, want 2", n, got)
		}
	}
}

func TestBroadcastProtocol(t *testing.T) {
	r := newRig(t, 8, Dir1SW())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 1)
	for n := mem.NodeID(1); n < 6; n++ {
		r.read(n, a)
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if !e.BroadcastBit {
		t.Fatal("broadcast bit not set by overflow reads")
	}
	// Reads beyond the pointer do not trap.
	if r.f.Home(0).Traps != 0 {
		t.Fatalf("broadcast protocol trapped %d times on reads", r.f.Home(0).Traps)
	}
	r.write(6, a, 2)
	// The broadcast must invalidate every cached copy.
	for n := mem.NodeID(1); n < 6; n++ {
		if got := r.read(n, a); got != 2 {
			t.Fatalf("node %d read %d after broadcast, want 2", n, got)
		}
	}
	// Invalidations went to all 7 other nodes, cached or not.
	if got := r.f.Counters.Get("home.sw_invalidations"); got != 7 {
		t.Fatalf("broadcast sent %d invalidations, want 7", got)
	}
}

func TestOnePointerVariantsCoherent(t *testing.T) {
	for _, spec := range []Spec{OnePointer(AckHW), OnePointer(AckLACK), OnePointer(AckSW)} {
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, 8, spec)
			a := r.mem.AllocOn(0, 1)
			r.mem.Write(a, 10)
			for n := mem.NodeID(1); n < 6; n++ {
				if got := r.read(n, a); got != 10 {
					t.Fatalf("node %d read %d, want 10", n, got)
				}
			}
			r.write(6, a, 11)
			for n := mem.NodeID(1); n < 6; n++ {
				if got := r.read(n, a); got != 11 {
					t.Fatalf("node %d read %d, want 11", n, got)
				}
			}
		})
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, 2, FullMap())
	// Two blocks on node 0 that collide in node 1's 64-line cache.
	a1 := r.mem.AllocOn(0, 1)
	a2 := a1 + 64*mem.WordsPerBlock // same set, 64-line cache
	r.write(1, a1, 123)
	r.read(1, a2) // evicts the dirty line for a1
	if r.f.Counters.Get("msg.WB") == 0 {
		t.Fatal("dirty eviction sent no writeback")
	}
	if !r.engine.RunUntil(func() bool { return r.mem.Read(a1) == 123 }, 1_000_000) {
		t.Fatalf("writeback value not in memory: %d", r.mem.Read(a1))
	}
	// And the block is readable again with the written value.
	if got := r.read(0, a1); got != 123 {
		t.Fatalf("read after writeback = %d, want 123", got)
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	r := newRig(t, 8, FullMap())
	a := r.mem.AllocOn(0, 1)
	doneCount := 0
	// All eight nodes increment concurrently via RMW.
	for n := mem.NodeID(0); n < 8; n++ {
		r.f.Cache(n).Access(a, Op{
			Write: true,
			RMW:   RMW{Kind: RMWAdd, Arg: 1},
			Done:  func(uint64) { doneCount++ },
		})
	}
	if !r.engine.RunUntil(func() bool { return doneCount == 8 }, 5_000_000) {
		t.Fatalf("only %d/8 RMWs completed", doneCount)
	}
	if got := r.read(0, a); got != 8 {
		t.Fatalf("concurrent increments lost updates: %d, want 8", got)
	}
	if r.f.Counters.Get("cache.busy_retries") == 0 {
		t.Fatal("expected BUSY retries under write contention")
	}
}

func TestConcurrentWritersAllProtocols(t *testing.T) {
	for _, spec := range Spectrum() {
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, 8, spec)
			a := r.mem.AllocOn(0, 1)
			doneCount := 0
			for n := mem.NodeID(0); n < 8; n++ {
				r.f.Cache(n).Access(a, Op{
					Write: true,
					RMW:   RMW{Kind: RMWAdd, Arg: 1},
					Done:  func(uint64) { doneCount++ },
				})
			}
			if !r.engine.RunUntil(func() bool { return doneCount == 8 }, 20_000_000) {
				t.Fatalf("only %d/8 RMWs completed", doneCount)
			}
			if got := r.read(0, a); got != 8 {
				t.Fatalf("lost updates: %d, want 8", got)
			}
		})
	}
}

func TestWatchWakesOnWrite(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	var woke bool
	var sawValue uint64
	r.f.Cache(1).Watch(a, 0, Op{Done: func(v uint64) { woke = true; sawValue = v }})
	r.engine.Run(10_000) // let the watch arm
	if woke {
		t.Fatal("watch fired before any change")
	}
	r.write(2, a, 77)
	if !r.engine.RunUntil(func() bool { return woke }, 1_000_000) {
		t.Fatal("watch never fired after write")
	}
	if sawValue != 77 {
		t.Fatalf("watch saw %d, want 77", sawValue)
	}
}

func TestWatchImmediateWhenAlreadyChanged(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.write(2, a, 5)
	var got uint64
	fired := false
	r.f.Cache(1).Watch(a, 0, Op{Done: func(v uint64) { got = v; fired = true }})
	if !r.engine.RunUntil(func() bool { return fired }, 1_000_000) {
		t.Fatal("watch on already-changed value never fired")
	}
	if got != 5 {
		t.Fatalf("watch saw %d, want 5", got)
	}
}

func TestEpochFiltersStrayAcks(t *testing.T) {
	// Construct the writeback/invalidation crossing by hand: the home
	// must discard the ACK a node sends for an invalidation that a
	// writeback already satisfied.
	r := newRig(t, 2, FullMap())
	a := r.mem.AllocOn(0, 1)
	b := mem.BlockOf(a)
	r.write(1, a, 9)
	// Home believes node 1 owns the block. Deliver a stale-epoch ACK.
	r.f.Home(0).Deliver(&Msg{Kind: MsgACK, Src: 1, Dst: 0, Block: b, Epoch: 999})
	r.engine.Run(0)
	if r.f.Home(0).StrayAcks == 0 {
		t.Fatal("stale-epoch ACK was not filtered")
	}
	// The block must still be coherent.
	if got := r.read(0, a); got != 9 {
		t.Fatalf("read = %d, want 9", got)
	}
}

func TestPerfectIfetchBypassesCache(t *testing.T) {
	r := newRig(t, 2, FullMap())
	done := false
	r.f.Cache(0).Ifetch(12345, fire(func() { done = true }))
	if !done {
		t.Fatal("perfect ifetch was not immediate")
	}
	if r.f.Cache(0).Cache().Stats.IMisses != 0 {
		t.Fatal("perfect ifetch touched the cache")
	}
}

func TestIfetchFillsAndConflicts(t *testing.T) {
	engine := sim.NewEngine()
	net := mesh.New(engine, mesh.DefaultConfig(2))
	memory := mem.New(2)
	cfg := CacheConfig{Cache: cache.Config{Lines: 64}}
	f, err := NewFabric(engine, net, memory, FullMap(), DefaultTiming(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, engine: engine, mem: memory, f: f}

	a := memory.AllocOn(0, 1) // block 0, set 0
	r.mem.Write(a, 55)
	if got := r.read(0, a); got != 55 {
		t.Fatalf("read = %d", got)
	}
	// Instruction block in the same set displaces the data line.
	pc := mem.Addr(64 * mem.WordsPerBlock)
	fetched := false
	f.Cache(0).Ifetch(pc, fire(func() { fetched = true }))
	if !engine.RunUntil(func() bool { return fetched }, 100_000) {
		t.Fatal("ifetch never completed")
	}
	if f.Cache(0).Cache().Stats.IMisses != 1 {
		t.Fatal("ifetch should have missed")
	}
	if _, resident := f.Cache(0).HasBlock(mem.BlockOf(a)); resident {
		t.Fatal("conflicting ifetch did not displace the data line")
	}
	// Re-fetch of the same instruction hits.
	f.Cache(0).Ifetch(pc, fire(func() {}))
	engine.Run(0)
	if f.Cache(0).Cache().Stats.IHits != 1 {
		t.Fatal("second ifetch should hit")
	}
}

// Sequential-equivalence property: with operations issued one at a time
// (each completing before the next), the memory behaves like a single flat
// array regardless of which node performs each operation and which
// protocol runs underneath.
func TestPropertySequentialEquivalence(t *testing.T) {
	specs := []Spec{FullMap(), LimitLESS(2), OnePointer(AckLACK), SoftwareOnly(), Dir1SW()}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, 4, spec)
			base := r.mem.AllocOn(0, 8)
			base2 := r.mem.AllocOn(2, 8)
			addrs := []mem.Addr{
				base, base + 1, base + 5, // two blocks on node 0
				base2, base2 + 4, // two blocks on node 2
			}
			ref := map[mem.Addr]uint64{}
			rnd := sim.NewRand(12345)
			for i := 0; i < 400; i++ {
				n := mem.NodeID(rnd.Intn(4))
				a := addrs[rnd.Intn(len(addrs))]
				switch rnd.Intn(3) {
				case 0:
					if got := r.read(n, a); got != ref[a] {
						t.Fatalf("op %d: node %d read %d from %d, want %d (%s)",
							i, n, got, a, ref[a], spec.Name)
					}
				case 1:
					v := rnd.Uint64() % 1000
					r.write(n, a, v)
					ref[a] = v
				case 2:
					old := r.rmw(n, a, RMW{Kind: RMWAdd, Arg: 3})
					if old != ref[a] {
						t.Fatalf("op %d: rmw old = %d, want %d", i, old, ref[a])
					}
					ref[a] += 3
				}
			}
		})
	}
}

// Single-writer invariant: scan all caches after a concurrent stress run;
// no block may ever end with two Exclusive copies or an Exclusive copy
// plus any other copy.
func TestPropertySingleWriter(t *testing.T) {
	for _, spec := range []Spec{FullMap(), LimitLESS(2), SoftwareOnly()} {
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, 8, spec)
			a := r.mem.AllocOn(0, 4)
			total := 0
			ops := 0
			rnd := sim.NewRand(777)
			for i := 0; i < 100; i++ {
				n := mem.NodeID(rnd.Intn(8))
				addr := a + mem.Addr(rnd.Intn(4))
				if rnd.Intn(2) == 0 {
					r.f.Cache(n).Access(addr, Op{Done: func(uint64) { ops++ }})
				} else {
					r.f.Cache(n).Access(addr, Op{
						Write: true,
						RMW:   RMW{Kind: RMWAdd, Arg: 1},
						Done:  func(uint64) { ops++; total++ },
					})
				}
			}
			if !r.engine.RunUntil(func() bool { return ops == 100 }, 50_000_000) {
				t.Fatalf("stress run stalled at %d/100 ops", ops)
			}
			// Check exclusivity per block across all caches.
			for blk := mem.BlockOf(a); blk <= mem.BlockOf(a+3); blk++ {
				excl, copies := 0, 0
				for n := 0; n < 8; n++ {
					if l, ok := r.f.Cache(mem.NodeID(n)).HasBlock(blk); ok {
						copies++
						if l.State == cache.Exclusive {
							excl++
						}
					}
				}
				if excl > 1 || (excl == 1 && copies > 1) {
					t.Fatalf("block %d: %d exclusive among %d copies", blk, excl, copies)
				}
			}
			// No lost updates: read each word and sum.
			var sum uint64
			for i := 0; i < 4; i++ {
				sum += r.read(0, a+mem.Addr(i))
			}
			if sum != uint64(total) {
				t.Fatalf("lost updates: sum %d, want %d", sum, total)
			}
		})
	}
}

func TestCheckerCleanOnStress(t *testing.T) {
	// Run the concurrent-writer stress under every protocol with the
	// invariant checker armed: any single-writer or divergent-copy
	// violation panics.
	for _, spec := range []Spec{FullMap(), LimitLESS(2), OnePointer(AckLACK), SoftwareOnly(), Dir1SW()} {
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, 8, spec)
			chk := r.f.EnableChecker()
			a := r.mem.AllocOn(0, 4)
			ops := 0
			rnd := sim.NewRand(4242)
			for i := 0; i < 150; i++ {
				n := mem.NodeID(rnd.Intn(8))
				addr := a + mem.Addr(rnd.Intn(4))
				if rnd.Intn(3) == 0 {
					r.f.Cache(n).Access(addr, Op{Done: func(uint64) { ops++ }})
				} else {
					r.f.Cache(n).Access(addr, Op{
						Write: true,
						RMW:   RMW{Kind: RMWAdd, Arg: 1},
						Done:  func(uint64) { ops++ },
					})
				}
			}
			if !r.engine.RunUntil(func() bool { return ops == 150 }, 50_000_000) {
				t.Fatalf("stress stalled at %d/150", ops)
			}
			if chk.Checks == 0 {
				t.Fatal("checker never ran")
			}
		})
	}
}

func TestCheckerCatchesViolation(t *testing.T) {
	// Plant a deliberate violation and confirm the checker fires.
	r := newRig(t, 2, FullMap())
	r.f.EnableChecker()
	a := r.mem.AllocOn(0, 1)
	r.write(1, a, 5) // node 1 exclusive
	// Forge a second exclusive copy behind the protocol's back.
	r.f.Cache(0).Cache().Insert(cache.Line{
		Block: mem.BlockOf(a), State: cache.Exclusive, Dirty: true,
	})
	defer func() {
		if recover() == nil {
			t.Error("checker missed a forged double-exclusive")
		}
	}()
	r.f.check(mem.BlockOf(a), "test")
}

// eventLog is a Tracer that keeps every event's kind and detail.
type eventLog []string

func (l *eventLog) Event(cycle sim.Cycle, kind, detail string) {
	*l = append(*l, kind+" "+detail)
}

func TestFabricTraceReceivesEvents(t *testing.T) {
	r := newRig(t, 4, LimitLESS(2))
	var log eventLog
	r.f.Trace = &log
	a := r.mem.AllocOn(0, 1)
	for n := mem.NodeID(1); n < 4; n++ {
		r.read(n, a) // third read overflows: trap event
	}
	all := strings.Join(log, "\n")
	if !strings.Contains(all, "RREQ") {
		t.Fatalf("trace missing read requests:\n%s", all)
	}
	if !strings.Contains(all, "trap ") {
		t.Fatalf("trace missing the overflow trap:\n%s", all)
	}
}

func TestBatchReadsEnhancement(t *testing.T) {
	// With the enhancement on, a burst of reads during a read-overflow
	// handler is drained by it instead of being busied.
	r := newRig(t, 16, LimitLESS(2))
	r.f.BatchReads = true
	r.f.Soft.(*NopSoftware).FixedCost = 400 // a realistic handler length
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 9)
	done := 0
	var values []uint64
	for n := mem.NodeID(1); n < 12; n++ {
		r.f.Cache(n).Access(a, Op{Done: func(v uint64) { values = append(values, v); done++ }})
	}
	if !r.engine.RunUntil(func() bool { return done == 11 }, 10_000_000) {
		t.Fatalf("only %d/11 burst reads completed", done)
	}
	for _, v := range values {
		if v != 9 {
			t.Fatalf("burst read returned %d, want 9", v)
		}
	}
	if r.f.Counters.Get("home.batched_reads") == 0 {
		t.Fatal("no reads were batched")
	}
	// The extended directory must have recorded every reader.
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if got := e.SwCount + e.Ptrs.Count(); got < 8 {
		t.Fatalf("only %d sharers recorded after the burst", got)
	}
}

func TestBatchReadsPendingWriteDrains(t *testing.T) {
	// A write arriving during a read chain must be processed when the
	// chain ends (queue order), not starved.
	r := newRig(t, 16, LimitLESS(2))
	r.f.BatchReads = true
	r.f.Soft.(*NopSoftware).FixedCost = 400
	a := r.mem.AllocOn(0, 1)
	done := 0
	for n := mem.NodeID(1); n < 10; n++ {
		r.f.Cache(n).Access(a, Op{Done: func(uint64) { done++ }})
	}
	wrote := false
	r.f.Cache(10).Access(a, Op{Write: true, Value: 55, Done: func(uint64) { wrote = true; done++ }})
	if !r.engine.RunUntil(func() bool { return done == 10 }, 10_000_000) {
		t.Fatalf("stalled at %d/10 (write starved?)", done)
	}
	if !wrote {
		t.Fatal("write never completed")
	}
	if got := r.read(3, a); got != 55 {
		t.Fatalf("read after queued write = %d, want 55", got)
	}
}

func TestWritebackCrossesRecall(t *testing.T) {
	// Node 1 owns a dirty block whose eviction (WB) crosses the home's
	// recall INV: the home must treat the writeback as the recall's data
	// and the stray ACK must be filtered by the epoch check.
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.write(1, a, 123) // node 1 dirty owner

	// Force the eviction: insert a conflicting block directly (the test
	// cache has 64 lines; block b+64 shares its set).
	conflict := a + 64*mem.WordsPerBlock
	r.read(1, conflict) // evicts the dirty line -> WB in flight

	// Concurrently node 2 writes, recalling from node 1.
	var got uint64
	wrote := false
	r.f.Cache(2).Access(a, Op{Write: true, RMW: RMW{Kind: RMWAdd, Arg: 1},
		Done: func(old uint64) { got, wrote = old, true }})
	if !r.engine.RunUntil(func() bool { return wrote }, 10_000_000) {
		t.Fatal("write after crossing WB never completed")
	}
	if got != 123 {
		t.Fatalf("RMW observed %d, want the written-back 123", got)
	}
	if final := r.read(3, a); final != 124 {
		t.Fatalf("final value %d, want 124", final)
	}
}

func TestWatchWakesOnEviction(t *testing.T) {
	// A watcher parked on a block that gets silently evicted must re-arm
	// (and eventually see the new value) rather than sleep forever.
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	var woke bool
	r.f.Cache(1).Watch(a, 0, Op{Done: func(v uint64) { woke = true }})
	r.engine.Run(5_000)
	// Evict the watched block from node 1's cache via a conflicting fill.
	r.read(1, a+64*mem.WordsPerBlock)
	r.engine.Run(10_000)
	// Now write the value; the re-armed watch must fire.
	r.write(2, a, 7)
	if !r.engine.RunUntil(func() bool { return woke }, 10_000_000) {
		t.Fatal("watch lost across eviction")
	}
}

func TestH0RemoteDuringLocalFill(t *testing.T) {
	// The software-only directory's blind spot: a remote request racing
	// the home's own untracked fill must retry (BUSY) until the fill
	// lands, then flush it — never leaving an untracked stale copy.
	r := newRig(t, 4, SoftwareOnly())
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 5)
	var homeVal, remoteVal uint64
	homeDone, remoteDone := false, false
	// Home's local read and the remote read race.
	r.f.Cache(0).Access(a, Op{Done: func(v uint64) { homeVal = v; homeDone = true }})
	r.f.Cache(1).Access(a, Op{Done: func(v uint64) { remoteVal = v; remoteDone = true }})
	if !r.engine.RunUntil(func() bool { return homeDone && remoteDone }, 10_000_000) {
		t.Fatal("racing H0 reads did not complete")
	}
	if homeVal != 5 || remoteVal != 5 {
		t.Fatalf("values %d/%d, want 5/5", homeVal, remoteVal)
	}
	// Now node 1 writes; the home must see the new value (its copy was
	// flushed/tracked, not stale).
	r.write(1, a, 6)
	if got := r.read(0, a); got != 6 {
		t.Fatalf("home read %d after remote write, want 6 (stale untracked copy)", got)
	}
}

func TestDir1SWWriteAfterBroadcastBitNoSharers(t *testing.T) {
	// Broadcast-bit set but every copy has been silently evicted: the
	// write must still complete (absent caches just ACK).
	r := newRig(t, 8, Dir1SW())
	a := r.mem.AllocOn(0, 1)
	for n := mem.NodeID(1); n < 5; n++ {
		r.read(n, a)
	}
	// Evict all copies silently via conflicting fills.
	for n := mem.NodeID(1); n < 5; n++ {
		r.read(n, a+64*mem.WordsPerBlock)
	}
	r.write(5, a, 42)
	if got := r.read(6, a); got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
}

func TestPerBlockProtocolOverride(t *testing.T) {
	// A two-pointer machine with one block promoted to full-map: the
	// promoted block never traps regardless of sharers, the others do.
	r := newRig(t, 16, LimitLESS(2))
	plain := r.mem.AllocOn(0, 1)
	hot := r.mem.AllocOn(0, 1)
	if err := r.f.Home(0).Configure(mem.BlockOf(hot), FullMap()); err != nil {
		t.Fatal(err)
	}
	for n := mem.NodeID(1); n < 10; n++ {
		r.read(n, hot)
		r.read(n, plain)
	}
	hotEntry := r.f.Home(0).Entry(mem.BlockOf(hot))
	if hotEntry.SwExt {
		t.Fatal("full-map override still extended into software")
	}
	if hotEntry.Ptrs.Count() != 9 {
		t.Fatalf("full-map override holds %d pointers, want 9", hotEntry.Ptrs.Count())
	}
	plainEntry := r.f.Home(0).Entry(mem.BlockOf(plain))
	if !plainEntry.SwExt {
		t.Fatal("unoverridden block did not overflow a 2-pointer directory")
	}
	// Writes to the overridden block complete coherently.
	r.write(11, hot, 7)
	if got := r.read(2, hot); got != 7 {
		t.Fatalf("read %d after write to overridden block, want 7", got)
	}
}

func TestConfigureRejectsLateAndInvalid(t *testing.T) {
	r := newRig(t, 4, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	r.read(1, a)
	if err := r.f.Home(0).Configure(mem.BlockOf(a), FullMap()); err == nil {
		t.Fatal("reconfiguration after first use was accepted")
	}
	b := r.mem.AllocOn(0, 1)
	if err := r.f.Home(0).Configure(mem.BlockOf(b), SoftwareOnly()); err == nil {
		t.Fatal("software-only override accepted on a LimitLESS machine's software")
	}
	bad := Spec{Name: "x", SoftwareOnly: true, HWPointers: 3}
	if err := r.f.Home(0).Configure(mem.BlockOf(b), bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestConfigureNeedsSoftware(t *testing.T) {
	r := newRig(t, 4, FullMap()) // no software installed
	a := r.mem.AllocOn(0, 1)
	if err := r.f.Home(0).Configure(mem.BlockOf(a), LimitLESS(2)); err == nil {
		t.Fatal("software-using override accepted on a machine without protocol software")
	}
}

func TestMigratoryDetectionPromotesAndServes(t *testing.T) {
	r := newRig(t, 8, LimitLESS(5))
	r.f.MigratoryDetect = true
	a := r.mem.AllocOn(0, 1)
	// Token-style migration: each node reads then writes in turn.
	for hop := 0; hop < 6; hop++ {
		n := mem.NodeID(1 + hop%4)
		v := r.read(n, a)
		r.write(n, a, v+1)
	}
	if got := r.f.Counters.Get("home.migratory_promotions"); got == 0 {
		t.Fatal("migratory block never promoted")
	}
	if got := r.f.Counters.Get("home.migratory_read_grants"); got == 0 {
		t.Fatal("no reads served with ownership after promotion")
	}
	if got := r.read(5, a); got != 6 {
		t.Fatalf("token value %d after 6 hops, want 6", got)
	}
}

func TestMigratoryDemotesOnCleanRecall(t *testing.T) {
	r := newRig(t, 8, LimitLESS(5))
	r.f.MigratoryDetect = true
	a := r.mem.AllocOn(0, 1)
	// Promote.
	for hop := 0; hop < 4; hop++ {
		n := mem.NodeID(1 + hop%3)
		v := r.read(n, a)
		r.write(n, a, v+1)
	}
	if r.f.Counters.Get("home.migratory_promotions") == 0 {
		t.Fatal("setup: block not promoted")
	}
	// Now the access pattern turns read-shared: reads with no writes.
	r.read(4, a) // exclusive grant (still promoted)
	r.read(5, a) // recalls 4's clean copy -> demotion
	if r.f.Counters.Get("home.migratory_demotions") == 0 {
		t.Fatal("clean recall of a read grant did not demote")
	}
	// Subsequent reads are shared again: two simultaneous readers.
	r.read(6, a)
	r.read(7, a)
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if e.Ptrs.Count() < 2 {
		t.Fatalf("after demotion readers should share (%d pointers)", e.Ptrs.Count())
	}
}

func TestMigratoryReducesTransactions(t *testing.T) {
	// The enhancement's purpose: fewer home transactions per migration
	// hop (the follow-on write hits locally).
	hops := func(detect bool) uint64 {
		r := newRig(t, 8, LimitLESS(5))
		r.f.MigratoryDetect = detect
		a := r.mem.AllocOn(0, 1)
		for hop := 0; hop < 20; hop++ {
			n := mem.NodeID(1 + hop%4)
			v := r.read(n, a)
			r.write(n, a, v+1)
		}
		return r.f.Counters.Get("msg.WREQ") + r.f.Counters.Get("msg.RREQ")
	}
	off := hops(false)
	on := hops(true)
	if on >= off {
		t.Fatalf("migratory detection did not reduce requests: %d vs %d", on, off)
	}
}

func TestCheckInRetiresPointer(t *testing.T) {
	r := newRig(t, 4, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	r.read(1, a)
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if e.Ptrs.Count() != 1 {
		t.Fatal("setup: pointer missing")
	}
	r.f.Cache(1).CheckIn(a)
	r.engine.Run(0)
	if e.Ptrs.Count() != 0 {
		t.Fatalf("pointer not retired: %d", e.Ptrs.Count())
	}
	if e.State != dir.Uncached {
		t.Fatalf("state %v after last check-in, want Uncached", e.State)
	}
	if r.f.Counters.Get("home.checkins") != 1 {
		t.Fatal("check-in not counted")
	}
	// The writer now invalidates nothing.
	r.write(2, a, 5)
	if got := r.f.Counters.Get("msg.INV"); got != 0 {
		t.Fatalf("write after check-in sent %d invalidations, want 0", got)
	}
}

func TestCheckInDirtyWritesBack(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.write(1, a, 77)
	r.f.Cache(1).CheckIn(a)
	r.engine.Run(0)
	if got := r.read(2, a); got != 77 {
		t.Fatalf("read after dirty check-in = %d, want 77", got)
	}
}

func TestCheckInAbsentIsNoop(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	msgsBefore := r.f.Counters.Get("msg.REL")
	r.f.Cache(1).CheckIn(a)
	r.engine.Run(0)
	if r.f.Counters.Get("msg.REL") != msgsBefore {
		t.Fatal("absent check-in sent a message")
	}
}

func TestCheckOutAcquiresOwnership(t *testing.T) {
	r := newRig(t, 4, LimitLESS(2))
	a := r.mem.AllocOn(0, 1)
	r.mem.Write(a, 9)
	done := false
	r.f.Cache(1).CheckOut(a, Op{Done: func(uint64) { done = true }})
	if !r.engine.RunUntil(func() bool { return done }, 1_000_000) {
		t.Fatal("CheckOut never completed")
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if e.State != dir.Exclusive || e.Owner != 1 {
		t.Fatalf("state %v owner %d, want Exclusive owner 1", e.State, e.Owner)
	}
	// The subsequent read and write are pure local hits: no new requests.
	reqs := r.f.Counters.Get("msg.RREQ") + r.f.Counters.Get("msg.WREQ")
	if got := r.read(1, a); got != 9 {
		t.Fatalf("read %d, want 9", got)
	}
	r.write(1, a, 10)
	after := r.f.Counters.Get("msg.RREQ") + r.f.Counters.Get("msg.WREQ")
	if after != reqs {
		t.Fatalf("checked-out RMW sent %d extra requests, want 0", after-reqs)
	}
}

func TestCheckOutIdempotentWhenOwned(t *testing.T) {
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	r.write(1, a, 3)
	msgs := r.f.Net.Messages
	done := false
	r.f.Cache(1).CheckOut(a, Op{Done: func(uint64) { done = true }})
	r.engine.Run(0)
	if !done {
		t.Fatal("owned CheckOut never completed")
	}
	if r.f.Net.Messages != msgs {
		t.Fatal("owned CheckOut sent messages")
	}
}

func TestCheckOutCheckInRoundTrip(t *testing.T) {
	// The full CICO discipline: check out, mutate locally, check in.
	// The home ends Uncached with memory holding the final value.
	r := newRig(t, 4, OnePointer(AckLACK))
	a := r.mem.AllocOn(0, 1)
	for n := mem.NodeID(1); n < 4; n++ {
		done := false
		r.f.Cache(n).CheckOut(a, Op{Done: func(uint64) { done = true }})
		if !r.engine.RunUntil(func() bool { return done }, 1_000_000) {
			t.Fatalf("node %d CheckOut stalled", n)
		}
		r.write(n, a, uint64(n)*10)
		r.f.Cache(n).CheckIn(a)
		r.engine.Run(0)
	}
	e := r.f.Home(0).Entry(mem.BlockOf(a))
	if e.State != dir.Uncached {
		t.Fatalf("state %v after final check-in, want Uncached", e.State)
	}
	if got := r.mem.Read(a); got != 30 {
		t.Fatalf("memory holds %d, want 30", got)
	}
	// The serialized CICO pattern never traps on this protocol.
	if r.f.Home(0).Traps != 0 {
		t.Fatalf("CICO discipline trapped %d times, want 0", r.f.Home(0).Traps)
	}
}

func TestCheckOutJoinsReadTransaction(t *testing.T) {
	// A CheckOut issued while a read miss is outstanding must still end
	// with exclusive ownership.
	r := newRig(t, 4, FullMap())
	a := r.mem.AllocOn(0, 1)
	readDone, coDone := false, false
	r.f.Cache(1).Access(a, Op{Done: func(uint64) { readDone = true }})
	r.f.Cache(1).CheckOut(a, Op{Done: func(uint64) { coDone = true }})
	if !r.engine.RunUntil(func() bool { return readDone && coDone }, 1_000_000) {
		t.Fatalf("stalled: read=%v checkout=%v", readDone, coDone)
	}
	line, ok := r.f.Cache(1).HasBlock(mem.BlockOf(a))
	if !ok || line.State != cache.Exclusive {
		t.Fatalf("CheckOut joined a read and ended %v, want Exclusive", line.State)
	}
}

// TestPropertyTortureAllFeatures drives randomized operation sequences —
// including check-in/check-out directives — through every protocol with
// every enhancement combination, with the invariant checker armed and a
// flat-memory oracle verifying every read. Operations run one at a time,
// so the oracle is exact.
func TestPropertyTortureAllFeatures(t *testing.T) {
	specs := []Spec{
		FullMap(), LimitLESS(2), LimitLESS(5),
		OnePointer(AckHW), OnePointer(AckLACK), OnePointer(AckSW),
		SoftwareOnly(), Dir1SW(),
	}
	for trial := 0; trial < len(specs)*2; trial++ {
		spec := specs[trial%len(specs)]
		rnd := sim.NewRand(uint64(trial)*7919 + 13)
		t.Run(fmt.Sprintf("%s/%d", spec.Name, trial), func(t *testing.T) {
			r := newRig(t, 6, spec)
			r.f.EnableChecker()
			r.f.BatchReads = trial%2 == 0
			r.f.MigratoryDetect = trial%3 == 0

			base := r.mem.AllocOn(0, 8)
			base2 := r.mem.AllocOn(3, 8)
			addrs := []mem.Addr{base, base + 2, base + 4, base2, base2 + 5}

			// Optionally reconfigure one block (before first use).
			if !spec.SoftwareOnly && spec.UsesSoftware() && trial%2 == 1 {
				if err := r.f.Home(0).Configure(mem.BlockOf(base), FullMap()); err != nil {
					t.Fatal(err)
				}
			}

			ref := map[mem.Addr]uint64{}
			for i := 0; i < 250; i++ {
				n := mem.NodeID(rnd.Intn(6))
				a := addrs[rnd.Intn(len(addrs))]
				switch rnd.Intn(6) {
				case 0, 1:
					if got := r.read(n, a); got != ref[a] {
						t.Fatalf("op %d: node %d read %d from %d, want %d",
							i, n, got, a, ref[a])
					}
				case 2:
					v := rnd.Uint64() % 997
					r.write(n, a, v)
					ref[a] = v
				case 3:
					old := r.rmw(n, a, RMW{Kind: RMWAdd, Arg: 7})
					if old != ref[a] {
						t.Fatalf("op %d: rmw old %d, want %d", i, old, ref[a])
					}
					ref[a] += 7
				case 4:
					r.f.Cache(n).CheckIn(a)
					r.engine.Run(0) // drain the writeback/relinquish
				case 5:
					done := false
					r.f.Cache(n).CheckOut(a, Op{Done: func(uint64) { done = true }})
					if !r.engine.RunUntil(func() bool { return done }, 1_000_000) {
						t.Fatalf("op %d: check-out stalled", i)
					}
				}
			}
			// Final sweep: every address must read its oracle value from
			// every node.
			for _, a := range addrs {
				for n := mem.NodeID(0); n < 6; n++ {
					if got := r.read(n, a); got != ref[a] {
						t.Fatalf("final: node %d read %d from %d, want %d", n, got, a, ref[a])
					}
				}
			}
		})
	}
}

// TestNoteSharersCountsUnion pins the worker-set maximum of a block whose
// hardware pointers and local bit overlap its software list: the union
// counts each node once. The stamp generation starts at its maximum with
// every node stamped by the generation that follows the wrap, so a union
// that skipped the wrap-around reset would miss every node; invTargets,
// which shares the stamps, is held to the same reset.
func TestNoteSharersCountsUnion(t *testing.T) {
	r := newRig(t, 8, LimitLESS(2))
	h := r.f.Home(0)
	b := mem.BlockOf(r.mem.AllocOn(0, 1))
	r.f.Soft.ReadOverflow(b, []mem.NodeID{0, 1, 2, 3}, 4)
	e := h.Entry(b)
	e.State = dir.Shared
	e.SwExt = true
	e.Ptrs.Add(3) // also in software
	e.Ptrs.Add(5)
	e.LocalBit = true // node 0, also in software

	staleStamps := func() {
		h.invGen = math.MaxUint32
		for i := range h.invSeen {
			h.invSeen[i] = 1
		}
	}
	staleStamps()
	h.noteSharers(b, e)
	if h.invGen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", h.invGen)
	}
	if e.MaxSharers != 6 {
		t.Fatalf("MaxSharers = %d, want 6 (union of {0..4}, {3,5} and the local bit)", e.MaxSharers)
	}

	staleStamps()
	targets := h.invTargets(b, e, 7, false)
	got := map[mem.NodeID]bool{}
	for _, id := range targets {
		if got[id] {
			t.Fatalf("invTargets = %v: node %d listed twice", targets, id)
		}
		got[id] = true
	}
	if len(got) != 6 {
		t.Fatalf("invTargets = %v, want nodes 0..5", targets)
	}
	h.releaseInv(targets)
}
