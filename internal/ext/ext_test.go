package ext

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/stats"
)

func TestEntryInlineThenSpill(t *testing.T) {
	e := &entry{}
	for i := mem.NodeID(0); i < inlineSharers; i++ {
		if !e.add(i, 64) {
			t.Fatalf("add(%d) reported duplicate", i)
		}
	}
	if e.spilled() {
		t.Fatal("entry spilled below inline capacity")
	}
	e.add(inlineSharers, 64)
	if !e.spilled() {
		t.Fatal("entry did not spill past inline capacity")
	}
	if e.n != inlineSharers+1 {
		t.Fatalf("n = %d, want %d", e.n, inlineSharers+1)
	}
	// All members survive the spill.
	for i := mem.NodeID(0); i <= inlineSharers; i++ {
		if !e.has(i) {
			t.Fatalf("member %d lost in spill", i)
		}
	}
}

// list enumerates e's sharers into a fresh buffer.
func list(e *entry) []mem.NodeID {
	return e.sharersInto(make([]mem.NodeID, e.n))
}

func TestEntryDuplicateAdd(t *testing.T) {
	e := &entry{}
	e.add(3, 64)
	if e.add(3, 64) {
		t.Fatal("duplicate add reported new")
	}
	if e.n != 1 {
		t.Fatalf("n = %d after duplicate, want 1", e.n)
	}
}

func TestEntrySharersSorted(t *testing.T) {
	e := &entry{}
	for _, id := range []mem.NodeID{9, 1, 63, 5, 30, 2} { // spills
		e.add(id, 64)
	}
	got := list(e)
	want := []mem.NodeID{1, 2, 5, 9, 30, 63}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sharers = %v, want %v", got, want)
		}
	}
}

func TestEntrySharersInlineSorted(t *testing.T) {
	e := &entry{}
	for _, id := range []mem.NodeID{7, 2, 5} {
		e.add(id, 64)
	}
	got := list(e)
	want := []mem.NodeID{2, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inline sharers = %v, want %v", got, want)
		}
	}
}

// Property: entry membership matches a reference set under arbitrary adds.
func TestEntryPropertyMembership(t *testing.T) {
	f := func(ids []uint8) bool {
		e := &entry{}
		ref := map[mem.NodeID]bool{}
		for _, raw := range ids {
			id := mem.NodeID(raw)
			isNew := e.add(id, 256)
			if isNew == ref[id] {
				return false // add result disagreed with reference
			}
			ref[id] = true
		}
		if e.n != len(ref) {
			return false
		}
		for _, s := range list(e) {
			if !ref[s] {
				return false
			}
		}
		return len(list(e)) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: through many free-list recycles of a handful of entries,
// each entry's enumeration equals the sorted, deduplicated reference list,
// and it reports spilled() only once it outgrows the inline array, so the
// spill storage a recycled entry keeps is invisible to the cost model.
func TestEntrySharersThroughRecycling(t *testing.T) {
	const maxNodes = 130 // three bitset words, the last partly used
	rng := rand.New(rand.NewSource(1))
	var fl freeList
	buf := make([]mem.NodeID, maxNodes)
	live := make([]*entry, 0, 4)
	for round := 0; round < 3000; round++ {
		e := fl.get()
		if e.n != 0 || e.spilled() {
			t.Fatalf("round %d: fresh entry has n = %d, spilled = %v", round, e.n, e.spilled())
		}
		ref := map[mem.NodeID]bool{}
		for i, adds := 0, rng.Intn(3*inlineSharers); i < adds; i++ {
			id := mem.NodeID(rng.Intn(maxNodes))
			if e.add(id, maxNodes) == ref[id] {
				t.Fatalf("round %d: add(%d) disagreed with the reference", round, id)
			}
			ref[id] = true
			if e.spilled() != (len(ref) > inlineSharers) {
				t.Fatalf("round %d: %d sharers, spilled = %v", round, len(ref), e.spilled())
			}
		}
		want := make([]mem.NodeID, 0, len(ref))
		for id := range ref {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := e.sharersInto(buf); !slices.Equal(got, want) {
			t.Fatalf("round %d: sharers = %v, want %v", round, got, want)
		}
		// Recycle in a shuffled order so entries trade places on the
		// free list.
		live = append(live, e)
		if len(live) == cap(live) {
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for _, l := range live {
				fl.put(l)
			}
			live = live[:0]
		}
	}
	if fl.Allocs > 4 {
		t.Fatalf("free list allocated %d entries, want at most 4", fl.Allocs)
	}
}

func TestFreeListRecycles(t *testing.T) {
	var fl freeList
	a := fl.get()
	if fl.Allocs != 1 {
		t.Fatalf("Allocs = %d, want 1", fl.Allocs)
	}
	a.add(5, 64)
	fl.put(a)
	b := fl.get()
	if fl.Reuses != 1 {
		t.Fatalf("Reuses = %d, want 1", fl.Reuses)
	}
	if b != a {
		t.Fatal("free list did not recycle the entry")
	}
	if b.n != 0 || b.has(5) {
		t.Fatal("recycled entry not reset")
	}
}

func TestHashTableInsertLookupRemove(t *testing.T) {
	h := newHashTable(8)
	var fl freeList
	for b := mem.Block(0); b < 50; b++ {
		e := fl.get()
		e.add(mem.NodeID(b%16), 64)
		h.insert(e, b)
	}
	if h.Len() != 50 {
		t.Fatalf("Len = %d, want 50", h.Len())
	}
	for b := mem.Block(0); b < 50; b++ {
		e, _ := h.lookup(b)
		if e == nil || e.block != b {
			t.Fatalf("lookup(%d) failed", b)
		}
	}
	if e, _ := h.lookup(999); e != nil {
		t.Fatal("lookup of absent block succeeded")
	}
	for b := mem.Block(0); b < 50; b += 2 {
		_, want := h.lookup(b)
		e, probes := h.remove(b)
		if e == nil {
			t.Fatalf("remove(%d) failed", b)
		}
		if probes != want {
			t.Fatalf("remove(%d) probed %d links, lookup %d", b, probes, want)
		}
	}
	if h.Len() != 25 {
		t.Fatalf("Len = %d after removals, want 25", h.Len())
	}
	for b := mem.Block(0); b < 50; b++ {
		e, _ := h.lookup(b)
		if (b%2 == 0) != (e == nil) {
			t.Fatalf("post-removal lookup(%d) inconsistent", b)
		}
	}
	if e, _ := h.remove(999); e != nil {
		t.Fatal("remove of absent block succeeded")
	}
}

func TestTable2FlexibleCTotals(t *testing.T) {
	// The paper's Table 2, C columns: a median read request that stores
	// six pointers into a freshly allocated entry totals 480 cycles; a
	// median write request that walks eight sharers and transmits eight
	// invalidations totals 737.
	c := FlexibleC()
	readCost, rb := c.readCost(allocFresh, 6, 1, false, false)
	if readCost != 480 {
		t.Fatalf("C read total = %d, want 480\n%s", readCost,
			stats.FormatBreakdown(&rb, &rb))
	}
	writeCost, wb := c.writeCost(8, 8, 1, true, false)
	if writeCost != 737 {
		t.Fatalf("C write total = %d, want 737\n%s", writeCost,
			stats.FormatBreakdown(&wb, &wb))
	}
	// Spot-check signature rows against the paper.
	if rb[stats.ActStorePointers] != 235 {
		t.Fatalf("C read store-pointers = %d, want 235", rb[stats.ActStorePointers])
	}
	if wb[stats.ActInvalidate] != 419 {
		t.Fatalf("C write invalidate = %d, want 419", wb[stats.ActInvalidate])
	}
	if wb[stats.ActHashAdmin] != 74 {
		t.Fatalf("C write hash admin = %d, want 74", wb[stats.ActHashAdmin])
	}
}

func TestTable2AssemblyTotals(t *testing.T) {
	// Table 2, assembly columns: read 193, write 384; the hand-tuned
	// version has no protocol dispatch, saved state, hash table, or
	// non-Alewife support.
	a := TunedASM()
	readCost, rb := a.readCost(allocFresh, 6, 1, false, false)
	if readCost != 193 {
		t.Fatalf("asm read total = %d, want 193\n%s", readCost,
			stats.FormatBreakdown(&rb, &rb))
	}
	writeCost, wb := a.writeCost(8, 8, 1, true, false)
	if writeCost != 384 {
		t.Fatalf("asm write total = %d, want 384\n%s", writeCost,
			stats.FormatBreakdown(&wb, &wb))
	}
	for _, act := range []stats.Activity{stats.ActProtoDispatch, stats.ActSaveState,
		stats.ActHashAdmin, stats.ActNonAlewife} {
		if rb[act] != 0 || wb[act] != 0 {
			t.Fatalf("assembly version charged %s", act)
		}
	}
}

func TestTunedHalvesFlexible(t *testing.T) {
	// "In most cases, the hand-tuned version of the software reduces the
	// latency of protocol request handlers by about a factor of two."
	c, a := FlexibleC(), TunedASM()
	cr, _ := c.readCost(allocReuse, 6, 1, false, false)
	ar, _ := a.readCost(allocReuse, 6, 1, false, false)
	ratio := float64(cr) / float64(ar)
	if ratio < 1.6 || ratio > 3.0 {
		t.Fatalf("read C/asm ratio = %.2f, want roughly 2", ratio)
	}
	cw, _ := c.writeCost(8, 8, 1, true, false)
	aw, _ := a.writeCost(8, 8, 1, true, false)
	ratio = float64(cw) / float64(aw)
	if ratio < 1.6 || ratio > 3.0 {
		t.Fatalf("write C/asm ratio = %.2f, want roughly 2", ratio)
	}
}

func TestReadCostDecreasesOnReuse(t *testing.T) {
	c := FlexibleC()
	fresh, _ := c.readCost(allocFresh, 6, 1, false, false)
	reuse, _ := c.readCost(allocReuse, 6, 1, false, false)
	touch, _ := c.readCost(allocTouch, 6, 1, false, false)
	if !(fresh > reuse && reuse > touch) {
		t.Fatalf("want fresh(%d) > reuse(%d) > touch(%d)", fresh, reuse, touch)
	}
}

func TestHandlersReadOverflowRecords(t *testing.T) {
	h, err := New(16, proto.LimitLESS(5), FlexibleC())
	if err != nil {
		t.Fatal(err)
	}
	b := mem.Block(3)
	drained := []mem.NodeID{1, 2, 3, 4, 5}
	cost := h.ReadOverflow(b, drained, 6)
	if cost != 480 {
		t.Fatalf("first overflow cost = %d, want 480 (fresh alloc)", cost)
	}
	sharers := h.SharersOf(b)
	if len(sharers) != 6 {
		t.Fatalf("sharers = %v, want 6 members", sharers)
	}
	if h.Ledger.N() != 1 {
		t.Fatal("ledger did not record the handler")
	}
	rec, _ := h.Ledger.Median(stats.ReadRequest, -1)
	if rec.Cycles != 480 || rec.Sharers != 6 {
		t.Fatalf("ledger record = %+v", rec)
	}
	// A second overflow touches the existing entry: cheaper.
	cost2 := h.ReadOverflow(b, []mem.NodeID{7, 8}, 9)
	if cost2 >= cost {
		t.Fatalf("touch overflow cost %d not below fresh %d", cost2, cost)
	}
	if len(h.SharersOf(b)) != 9 {
		t.Fatalf("sharers after second overflow = %d, want 9", len(h.SharersOf(b)))
	}
}

func TestHandlersWriteFaultFreesEntry(t *testing.T) {
	h, err := New(16, proto.LimitLESS(5), FlexibleC())
	if err != nil {
		t.Fatal(err)
	}
	b := mem.Block(3)
	h.ReadOverflow(b, []mem.NodeID{1, 2, 3, 4, 5}, 6)
	if h.Resident(0) != 1 {
		t.Fatal("entry not resident after overflow")
	}
	h.WriteFault(b, 7, 8)
	if h.Resident(0) != 0 {
		t.Fatal("entry not freed by write fault")
	}
	if len(h.SharersOf(b)) != 0 {
		t.Fatal("sharers survive write fault")
	}
	// The next overflow reuses the freed entry.
	h.ReadOverflow(b, nil, 1)
	rec, _ := h.Ledger.Median(stats.ReadRequest, 1)
	if rec.Breakdown[stats.ActMemMgmt] != uint64(FlexibleC().MemReuse) {
		t.Fatalf("expected free-list reuse cost, got %d", rec.Breakdown[stats.ActMemMgmt])
	}
}

func TestHandlersPerNodeIsolation(t *testing.T) {
	h, err := New(4, proto.LimitLESS(2), FlexibleC())
	if err != nil {
		t.Fatal(err)
	}
	// Blocks homed on different nodes use different software directories.
	b0 := mem.BlockOf(mem.SegBase(0))
	b1 := mem.BlockOf(mem.SegBase(1))
	h.ReadOverflow(b0, nil, 2)
	h.ReadOverflow(b1, nil, 3)
	if h.Resident(0) != 1 || h.Resident(1) != 1 {
		t.Fatal("entries not isolated per home node")
	}
}

func TestHandlersAckCosts(t *testing.T) {
	h, err := New(4, proto.OnePointer(proto.AckSW), FlexibleC())
	if err != nil {
		t.Fatal(err)
	}
	plain := h.AckTrap(1, false)
	last := h.AckTrap(1, true)
	if plain <= 0 {
		t.Fatal("plain ack costs nothing")
	}
	if last <= plain {
		t.Fatal("last ack (which transmits data) should cost more")
	}
	lack := h.LastAckTrap(1)
	if lack != last {
		t.Fatalf("LACK trap cost %d, want %d (same as final ACK)", lack, last)
	}
	if h.Ledger.Count(stats.AckRequest) != 3 {
		t.Fatal("ack traps not recorded")
	}
}

func TestAssemblyOnlySupportsH5(t *testing.T) {
	if _, err := New(16, proto.LimitLESS(2), TunedASM()); err == nil {
		t.Fatal("assembly handlers accepted a protocol other than DirnH5SNB")
	}
	if _, err := New(16, proto.LimitLESS(5), TunedASM()); err != nil {
		t.Fatalf("assembly handlers rejected DirnH5SNB: %v", err)
	}
}

func TestSoftwareOnlyReadTransmitsData(t *testing.T) {
	// Compare at a spilled worker set so the H0 small-set optimization
	// does not apply: the software-only read must cost more because its
	// handler also transmits the data reply.
	h0, _ := New(16, proto.SoftwareOnly(), FlexibleC())
	h5, _ := New(16, proto.LimitLESS(5), FlexibleC())
	drained := []mem.NodeID{1, 2, 3, 4, 5}
	c0 := h0.ReadOverflow(1, drained, 6)
	c5 := h5.ReadOverflow(1, drained, 6)
	if c0 <= c5 {
		t.Fatalf("software-only read (%d) should cost more than LimitLESS (%d): it transmits the data", c0, c5)
	}
	if c0-c5 != FlexibleC().TransmitData {
		t.Fatalf("cost delta = %d, want the data-transmit cost %d", c0-c5, FlexibleC().TransmitData)
	}
}

func TestSmallSetOptimizationCheapensHandlers(t *testing.T) {
	// Paper Section 5: the memory-usage optimization improves the
	// H1,LACK / H1,ACK / H0 protocols for worker sets of 4 or less.
	lack, _ := New(16, proto.OnePointer(proto.AckLACK), FlexibleC())
	hw, _ := New(16, proto.OnePointer(proto.AckHW), FlexibleC())
	cLack := lack.ReadOverflow(1, []mem.NodeID{1}, 2) // 2 sharers: inline
	cHW := hw.ReadOverflow(1, []mem.NodeID{1}, 2)
	if cLack >= cHW {
		t.Fatalf("LACK small-set read (%d) not cheaper than hardware-ack variant (%d)", cLack, cHW)
	}
	// Beyond four sharers the entry spills and the optimization is off.
	lack2, _ := New(16, proto.OnePointer(proto.AckLACK), FlexibleC())
	hw2, _ := New(16, proto.OnePointer(proto.AckHW), FlexibleC())
	big := []mem.NodeID{1, 2, 3, 4, 5}
	cLack2 := lack2.ReadOverflow(1, big, 6)
	cHW2 := hw2.ReadOverflow(1, big, 6)
	if cLack2 != cHW2 {
		t.Fatalf("spilled-set costs differ: LACK %d vs HW %d", cLack2, cHW2)
	}
}

func TestSoftwareOnlyLocalRequestKind(t *testing.T) {
	h0, _ := New(4, proto.SoftwareOnly(), FlexibleC())
	home := mem.HomeOfBlock(1)
	h0.ReadOverflow(1, nil, home)
	if h0.Ledger.Count(stats.LocalRequest) != 1 {
		t.Fatal("intra-node software read not recorded as local")
	}
}

func TestReadBatchedIncremental(t *testing.T) {
	h, _ := New(16, proto.LimitLESS(5), FlexibleC())
	full := h.ReadOverflow(7, []mem.NodeID{1, 2, 3, 4, 5}, 6)
	batched := h.ReadBatched(7, 8)
	if batched >= full {
		t.Fatalf("batched read (%d) not cheaper than a full trap (%d)", batched, full)
	}
	if len(h.SharersOf(7)) != 7 {
		t.Fatalf("batched reader not recorded: %d sharers", len(h.SharersOf(7)))
	}
	// Batched read with no entry (racing a write fault) pays full price.
	h2, _ := New(16, proto.LimitLESS(5), FlexibleC())
	if got := h2.ReadBatched(9, 1); got < full/2 {
		t.Fatalf("entry-less batched read cost %d, want a full handler", got)
	}
}

func TestParallelInvReducesWriteCost(t *testing.T) {
	seqH, _ := New(16, proto.LimitLESS(5), FlexibleC())
	parH, _ := New(16, proto.LimitLESS(5), FlexibleC())
	parH.SetParallelInv(true)
	drained := []mem.NodeID{1, 2, 3, 4, 5}
	seqH.ReadOverflow(3, drained, 6)
	parH.ReadOverflow(3, drained, 6)
	seqCost := seqH.WriteFault(3, 7, 8)
	parCost := parH.WriteFault(3, 7, 8)
	if parCost >= seqCost {
		t.Fatalf("parallel invalidation (%d) not cheaper than sequential (%d)", parCost, seqCost)
	}
	if seqCost-parCost < 200 {
		t.Fatalf("8-invalidation saving only %d cycles", seqCost-parCost)
	}
}
