package proto

// Directed protocol conformance scenarios: each scenario is a script of
// operations and assertions against the home directory's state, run to
// quiescence after every step. Unlike the stress tests, these pin down the
// exact state-machine transitions of the paper's Section 2 protocol
// descriptions.

import (
	"fmt"
	"testing"

	"swex/internal/dir"
	"swex/internal/mem"
)

// scenario DSL --------------------------------------------------------

type step interface {
	run(t *testing.T, s *scenarioRig, i int)
}

type scenarioRig struct {
	*rig
	addr mem.Addr
}

func (s *scenarioRig) entry() *dir.Entry {
	return s.f.Home(mem.HomeOfBlock(mem.BlockOf(s.addr))).Entry(mem.BlockOf(s.addr))
}

// read: node reads the scenario block, expecting the value.
type read struct {
	node mem.NodeID
	want uint64
}

func (st read) run(t *testing.T, s *scenarioRig, i int) {
	if got := s.read(st.node, s.addr); got != st.want {
		t.Fatalf("step %d: node %d read %d, want %d", i, st.node, got, st.want)
	}
}

// write: node writes the value.
type write struct {
	node  mem.NodeID
	value uint64
}

func (st write) run(t *testing.T, s *scenarioRig, i int) {
	s.write(st.node, s.addr, st.value)
}

// evict: forcibly drop the node's copy (clean or dirty) via direct cache
// manipulation, modeling a silent replacement (writeback goes through the
// protocol if dirty).
type evict struct {
	node mem.NodeID
}

func (st evict) run(t *testing.T, s *scenarioRig, i int) {
	b := mem.BlockOf(s.addr)
	cc := s.f.Cache(st.node)
	line, ok := cc.Cache().Invalidate(b)
	if !ok {
		t.Fatalf("step %d: node %d has no copy to evict", i, st.node)
	}
	if line.Dirty {
		s.f.Send(Msg{Kind: MsgWB, Src: st.node, Dst: mem.HomeOfBlock(b),
			Block: b, Words: line.Words})
	}
	s.engine.Run(0)
}

// expectState: assert the home directory state.
type expectState struct {
	state dir.State
}

func (st expectState) run(t *testing.T, s *scenarioRig, i int) {
	if got := s.entry().State; got != st.state {
		t.Fatalf("step %d: directory state %v, want %v", i, got, st.state)
	}
}

// expectPointers: assert the hardware pointer count and local bit.
type expectPointers struct {
	count    int
	localBit bool
}

func (st expectPointers) run(t *testing.T, s *scenarioRig, i int) {
	e := s.entry()
	if e.Ptrs.Count() != st.count {
		t.Fatalf("step %d: %d hardware pointers, want %d", i, e.Ptrs.Count(), st.count)
	}
	if e.LocalBit != st.localBit {
		t.Fatalf("step %d: local bit %v, want %v", i, e.LocalBit, st.localBit)
	}
}

// expectOwner: assert exclusive ownership.
type expectOwner struct {
	owner mem.NodeID
}

func (st expectOwner) run(t *testing.T, s *scenarioRig, i int) {
	e := s.entry()
	if e.State != dir.Exclusive || e.Owner != st.owner {
		t.Fatalf("step %d: state %v owner %d, want Exclusive owner %d",
			i, e.State, e.Owner, st.owner)
	}
}

// expectSwExt: assert software extension presence and recorded count.
type expectSwExt struct {
	present bool
	minSw   int
}

func (st expectSwExt) run(t *testing.T, s *scenarioRig, i int) {
	e := s.entry()
	if e.SwExt != st.present {
		t.Fatalf("step %d: SwExt %v, want %v", i, e.SwExt, st.present)
	}
	if e.SwCount < st.minSw {
		t.Fatalf("step %d: SwCount %d, want >= %d", i, e.SwCount, st.minSw)
	}
}

// expectTraps: assert the home's cumulative trap count.
type expectTraps struct {
	traps uint64
}

func (st expectTraps) run(t *testing.T, s *scenarioRig, i int) {
	home := s.f.Home(mem.HomeOfBlock(mem.BlockOf(s.addr)))
	if home.Traps != st.traps {
		t.Fatalf("step %d: %d traps, want %d", i, home.Traps, st.traps)
	}
}

// expectRemoteBit: assert the software-only directory's per-block bit.
type expectRemoteBit struct {
	set bool
}

func (st expectRemoteBit) run(t *testing.T, s *scenarioRig, i int) {
	if got := s.entry().RemoteBit; got != st.set {
		t.Fatalf("step %d: remote bit %v, want %v", i, got, st.set)
	}
}

// runScenario executes the steps on a fresh machine.
func runScenario(t *testing.T, nodes int, spec Spec, steps []step) {
	t.Helper()
	r := newRig(t, nodes, spec)
	r.f.EnableChecker()
	s := &scenarioRig{rig: r, addr: r.mem.AllocOn(0, 1)}
	for i, st := range steps {
		st.run(t, s, i)
	}
}

// scenarios -----------------------------------------------------------

func TestConformance(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		spec  Spec
		steps []step
	}{
		{
			// Section 2.1: the full-map protocol tracks every reader in
			// hardware and never traps.
			name: "fullmap/read-sharing", nodes: 8, spec: FullMap(),
			steps: []step{
				write{1, 10},
				expectOwner{1},
				read{2, 10}, read{3, 10}, read{4, 10},
				expectState{dir.Shared},
				// MSI: the recall for reader 2 dropped writer 1's copy,
				// so the sharers are exactly the three readers.
				expectPointers{3, false},
				expectTraps{0},
			},
		},
		{
			// Write to a shared block invalidates every pointer and
			// leaves a single exclusive owner.
			name: "fullmap/write-invalidates", nodes: 8, spec: FullMap(),
			steps: []step{
				read{1, 0}, read{2, 0}, read{3, 0},
				write{4, 5},
				expectOwner{4},
				expectPointers{0, false},
				read{1, 5},
			},
		},
		{
			// Section 3.1: the home's own read uses the one-bit local
			// pointer, not a hardware pointer.
			name: "limitless/local-bit", nodes: 4, spec: LimitLESS(2),
			steps: []step{
				read{0, 0},
				expectPointers{0, true},
				read{1, 0},
				expectPointers{1, true},
				expectTraps{0},
			},
		},
		{
			// Section 2.2: read overflow empties the pointers into the
			// software structure; subsequent reads refill the hardware.
			name: "limitless/read-overflow", nodes: 8, spec: LimitLESS(2),
			steps: []step{
				read{1, 0}, read{2, 0},
				expectTraps{0},
				read{3, 0}, // overflow
				expectTraps{1},
				expectSwExt{true, 3},
				expectPointers{0, false},
				read{4, 0}, read{5, 0}, // hardware absorbs
				expectTraps{1},
				expectPointers{2, false},
			},
		},
		{
			// Section 2.2: write after overflow invalidates hardware and
			// software pointers and reclaims the extended entry.
			name: "limitless/write-fault", nodes: 8, spec: LimitLESS(2),
			steps: []step{
				read{1, 0}, read{2, 0}, read{3, 0}, read{4, 0},
				expectSwExt{true, 3},
				write{5, 9},
				expectOwner{5},
				expectSwExt{false, 0},
				read{1, 9}, read{2, 9}, read{3, 9}, read{4, 9},
			},
		},
		{
			// Section 2.4: the one-pointer hardware-ack variant overflows
			// on the second reader.
			name: "h1/second-read-traps", nodes: 4, spec: OnePointer(AckHW),
			steps: []step{
				read{1, 0},
				expectTraps{0},
				read{2, 0},
				expectTraps{1},
				write{3, 4},
				read{1, 4},
			},
		},
		{
			// Section 2.3: the software-only directory's remote-access
			// bit; intra-node accesses run in hardware until the first
			// inter-node request.
			name: "h0/remote-bit", nodes: 4, spec: SoftwareOnly(),
			steps: []step{
				read{0, 0},
				expectRemoteBit{false},
				expectTraps{0},
				read{1, 0},
				expectRemoteBit{true},
				write{2, 3},
				read{0, 3},
				read{1, 3},
			},
		},
		{
			// Section 2.5: the broadcast protocol records nothing beyond
			// its single pointer; writes invalidate everybody.
			name: "dir1sw/broadcast", nodes: 4, spec: Dir1SW(),
			steps: []step{
				read{1, 0}, read{2, 0}, read{3, 0},
				expectTraps{0}, // reads never trap
				write{1, 8},
				expectOwner{1},
				read{2, 8}, read{3, 8},
			},
		},
		{
			// Dirty data recalled for a reader: memory is updated and
			// the old owner loses its copy.
			name: "fullmap/recall-for-read", nodes: 4, spec: FullMap(),
			steps: []step{
				write{1, 7},
				read{2, 7},
				expectState{dir.Shared},
				// The recall invalidated owner 1; only reader 2 remains.
				expectPointers{1, false},
			},
		},
		{
			// A silent clean eviction leaves a stale pointer that the
			// next write harmlessly invalidates.
			name: "limitless/stale-pointer", nodes: 4, spec: LimitLESS(2),
			steps: []step{
				read{1, 0},
				evict{1},
				write{2, 5},
				expectOwner{2},
				read{1, 5},
			},
		},
		{
			// A dirty eviction writes back; the block is then uncached
			// and re-readable with the written value.
			name: "fullmap/dirty-eviction", nodes: 4, spec: FullMap(),
			steps: []step{
				write{1, 6},
				evict{1},
				expectState{dir.Uncached},
				read{2, 6},
			},
		},
	}
	// Additional spectrum points and mechanism scenarios.
	noBit := LimitLESS(5)
	noBit.LocalBit = false
	noBit.Name = "DirnH5SNB(no-local-bit)"
	more := []struct {
		name  string
		nodes int
		spec  Spec
		steps []step
	}{
		{
			// H3 and H4 sit between H2 and H5: overflow at exactly
			// pointers+1 remote readers.
			name: "limitless/h3-overflow-boundary", nodes: 8, spec: LimitLESS(3),
			steps: []step{
				read{1, 0}, read{2, 0}, read{3, 0},
				expectTraps{0},
				read{4, 0},
				expectTraps{1},
			},
		},
		{
			name: "limitless/h4-overflow-boundary", nodes: 8, spec: LimitLESS(4),
			steps: []step{
				read{1, 0}, read{2, 0}, read{3, 0}, read{4, 0},
				expectTraps{0},
				read{5, 0},
				expectTraps{1},
			},
		},
		{
			// Without the local bit, the home's own read consumes a
			// pointer — and can be the one that overflows the directory
			// (the complexity case the bit eliminates, Section 3.1).
			name: "no-local-bit/home-read-consumes-pointer", nodes: 8, spec: noBit,
			steps: []step{
				read{1, 0}, read{2, 0}, read{3, 0}, read{4, 0}, read{5, 0},
				expectTraps{0},
				expectPointers{5, false},
				read{0, 0}, // the home itself
				expectTraps{1},
			},
		},
		{
			// The LACK variant's read side behaves exactly like the
			// hardware-ack variant; only write completion differs.
			name: "h1lack/read-side", nodes: 4, spec: OnePointer(AckLACK),
			steps: []step{
				read{1, 0},
				expectTraps{0},
				read{2, 0},
				expectTraps{1},
			},
		},
		{
			// Writes within the broadcast protocol's single pointer are
			// pure hardware.
			name: "dir1sw/write-within-pointer", nodes: 4, spec: Dir1SW(),
			steps: []step{
				read{1, 0},
				write{2, 3},
				expectTraps{0},
				expectOwner{2},
			},
		},
		{
			// Back-to-back writes from alternating nodes exercise the
			// recall path repeatedly without corrupting data.
			name: "fullmap/write-ping-pong", nodes: 4, spec: FullMap(),
			steps: []step{
				write{1, 1}, write{2, 2}, write{1, 3}, write{2, 4},
				expectOwner{2},
				read{3, 4},
			},
		},
	}
	cases = append(cases, more...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runScenario(t, c.nodes, c.spec, c.steps)
		})
	}
}

// TestConformanceRecallPointer pins the post-recall sharer set: after a
// dirty block is recalled for a reader, only the reader holds a copy (the
// old owner's copy is invalidated in an MSI protocol).
func TestConformanceRecallPointer(t *testing.T) {
	r := newRig(t, 4, FullMap())
	s := &scenarioRig{rig: r, addr: r.mem.AllocOn(0, 1)}
	s.write(1, s.addr, 7)
	if got := s.read(2, s.addr); got != 7 {
		t.Fatalf("reader got %d, want 7", got)
	}
	e := s.entry()
	if e.State != dir.Shared || e.Ptrs.Count() != 1 || !e.Ptrs.Has(2) {
		t.Fatalf("after recall: state %v ptrs %v, want Shared {2}", e.State, e.Ptrs.List())
	}
	if _, cached := s.f.Cache(1).HasBlock(mem.BlockOf(s.addr)); cached {
		t.Fatal("old owner still holds a copy after the recall")
	}
}

// TestConformanceAckModes drives the three one-pointer variants through an
// identical script and verifies they differ only in trap counts, exactly
// as Section 2.4 describes: the ACK variant traps per acknowledgment, the
// LACK variant once per write, the hardware variant not at all for acks.
func TestConformanceAckModes(t *testing.T) {
	trapsFor := func(mode AckMode) uint64 {
		r := newRig(t, 8, OnePointer(mode))
		s := &scenarioRig{rig: r, addr: r.mem.AllocOn(0, 1)}
		for n := mem.NodeID(1); n <= 4; n++ {
			s.read(n, s.addr)
		}
		s.write(5, s.addr, 1)
		return r.f.Home(0).Traps
	}
	hw := trapsFor(AckHW)
	lack := trapsFor(AckLACK)
	ack := trapsFor(AckSW)
	if !(ack > lack && lack > hw) {
		t.Fatalf("trap counts: hw=%d lack=%d ack=%d, want ack > lack > hw", hw, lack, ack)
	}
	if lack != hw+1 {
		t.Fatalf("LACK traps %d, want exactly one more than hardware-ack's %d", lack, hw)
	}
	// The ACK variant traps once per invalidated copy on top of LACK's
	// read-side traps.
	if ack < lack+3 {
		t.Fatalf("ACK traps %d, want at least %d (one per acknowledgment)", ack, lack+3)
	}
}

// TestConformanceEnhancementsSweep drives a generic workload — broad read
// sharing, migratory read-modify-write hopping, write bursts, evictions —
// across the full protocol spectrum (plus the broadcast variant) with the
// Section 7 enhancements switched on and the coherence checker enabled.
// The directed scenarios above pin exact transitions for the base
// protocols; this sweep checks that the adaptive paths (Exclusive grants
// to detected-migratory readers, batched read drains) uphold the
// invariants and the architectural memory semantics on every protocol.
func TestConformanceEnhancementsSweep(t *testing.T) {
	for _, spec := range append(Spectrum(), Dir1SW()) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, 8, spec)
			r.f.MigratoryDetect = true
			r.f.BatchReads = true
			checker := r.f.EnableChecker()
			a := r.mem.AllocOn(0, 1)

			// Broad read sharing: overflows every limited directory and
			// exercises batching when handler chains form.
			for n := mem.NodeID(0); n < 8; n++ {
				if got := r.read(n, a); got != 0 {
					t.Fatalf("node %d read %d, want 0", n, got)
				}
			}
			// Write burst against the full sharer set.
			r.write(1, a, 11)
			if got := r.read(2, a); got != 11 {
				t.Fatalf("node 2 read %d, want 11", got)
			}
			// Migratory hopping: read-modify-write chains from node to
			// node, which the detector should convert to Exclusive grants.
			for hop := 0; hop < 6; hop++ {
				n := mem.NodeID(2 + hop%4)
				r.rmw(n, a, RMW{Kind: RMWAdd, Arg: 1})
			}
			if got := r.read(0, a); got != 17 {
				t.Fatalf("after migratory hops read %d, want 17", got)
			}
			// Dirty eviction writes back through the protocol.
			r.write(3, a, 40)
			if !r.f.Cache(3).Evict(mem.BlockOf(a)) {
				t.Fatal("node 3 had no copy to evict")
			}
			r.engine.Run(0)
			if got := r.read(4, a); got != 40 {
				t.Fatalf("after dirty eviction read %d, want 40", got)
			}
			// Re-sharing after the storm.
			for n := mem.NodeID(5); n < 8; n++ {
				if got := r.read(n, a); got != 40 {
					t.Fatalf("node %d read %d, want 40", n, got)
				}
			}
			if checker.Checks == 0 {
				t.Fatal("coherence checker never ran")
			}
		})
	}
}

var _ = fmt.Sprintf // keep fmt for scenario debugging helpers
