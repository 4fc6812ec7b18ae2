package cache

import (
	"testing"
	"testing/quick"

	"swex/internal/mem"
)

func small(victim int) *Cache {
	return New(Config{Lines: 8, VictimLines: victim})
}

func line(b mem.Block, s LineState) Line {
	return Line{Block: b, State: s, Words: [mem.WordsPerBlock]uint64{uint64(b), 0, 0, 0}}
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := small(0)
	if _, ok := c.Lookup(5, false); ok {
		t.Fatal("empty cache reported a hit")
	}
	if c.Stats.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", c.Stats.Misses)
	}
}

func TestInsertThenHit(t *testing.T) {
	c := small(0)
	c.Insert(line(5, Shared))
	l, ok := c.Lookup(5, false)
	if !ok {
		t.Fatal("inserted block missed")
	}
	if l.State != Shared || l.Words[0] != 5 {
		t.Fatalf("hit returned wrong line: %+v", l)
	}
	if c.Stats.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", c.Stats.Hits)
	}
}

func TestDirectMappedConflictEvicts(t *testing.T) {
	c := small(0)
	c.Insert(line(1, Shared))
	ev, was := c.Insert(line(9, Shared)) // 9 % 8 == 1: conflict
	if !was {
		t.Fatal("conflicting insert did not evict")
	}
	if ev.Block != 1 {
		t.Fatalf("evicted block %d, want 1", ev.Block)
	}
	if _, ok := c.Lookup(1, false); ok {
		t.Fatal("evicted block still resident")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats.Evictions)
	}
}

func TestNonConflictingBlocksCoexist(t *testing.T) {
	c := small(0)
	c.Insert(line(1, Shared))
	if _, was := c.Insert(line(2, Shared)); was {
		t.Fatal("non-conflicting insert evicted")
	}
	if c.Resident() != 2 {
		t.Fatalf("Resident = %d, want 2", c.Resident())
	}
}

func TestRefillResidentBlockOverwrites(t *testing.T) {
	c := small(0)
	c.Insert(line(1, Shared))
	upgraded := line(1, Exclusive)
	upgraded.Dirty = true
	if _, was := c.Insert(upgraded); was {
		t.Fatal("in-place refill evicted")
	}
	l, _ := c.Lookup(1, false)
	if l.State != Exclusive || !l.Dirty {
		t.Fatal("refill did not overwrite state")
	}
}

func TestVictimCacheCatchesConflict(t *testing.T) {
	c := small(2)
	c.Insert(line(1, Shared))
	if _, was := c.Insert(line(9, Shared)); was {
		t.Fatal("displacement into victim cache should not leave hierarchy")
	}
	// Block 1 now lives in the victim cache; lookup should hit and swap.
	l, ok := c.Lookup(1, false)
	if !ok {
		t.Fatal("victim cache miss for displaced block")
	}
	if l.Block != 1 {
		t.Fatalf("lookup returned block %d, want 1", l.Block)
	}
	if c.Stats.VictimHits != 1 {
		t.Fatalf("VictimHits = %d, want 1", c.Stats.VictimHits)
	}
	// And block 9 must have been swapped into the victim cache.
	if _, ok := c.Peek(9); !ok {
		t.Fatal("swapped-out block 9 vanished")
	}
}

func TestVictimCacheLRUSpill(t *testing.T) {
	c := small(1)
	c.Insert(line(1, Shared))
	c.Insert(line(9, Shared))             // 1 -> victim
	ev, was := c.Insert(line(17, Shared)) // 9 -> victim, 1 spills
	if !was {
		t.Fatal("victim overflow did not evict")
	}
	if ev.Block != 1 {
		t.Fatalf("spilled block %d, want 1 (LRU)", ev.Block)
	}
	if _, ok := c.Peek(9); !ok {
		t.Fatal("block 9 should still be in victim cache")
	}
}

func TestDirtyEvictionAccounting(t *testing.T) {
	c := small(0)
	dirty := line(1, Exclusive)
	dirty.Dirty = true
	c.Insert(dirty)
	ev, was := c.Insert(line(9, Shared))
	if !was || !ev.Dirty {
		t.Fatal("dirty eviction lost dirty flag")
	}
	if c.Stats.DirtyEvict != 1 {
		t.Fatalf("DirtyEvict = %d, want 1", c.Stats.DirtyEvict)
	}
}

func TestInvalidateDirectMapped(t *testing.T) {
	c := small(0)
	d := line(3, Exclusive)
	d.Dirty = true
	d.Words[2] = 77
	c.Insert(d)
	l, ok := c.Invalidate(3)
	if !ok {
		t.Fatal("Invalidate missed resident block")
	}
	if !l.Dirty || l.Words[2] != 77 {
		t.Fatal("Invalidate returned wrong contents")
	}
	if _, ok := c.Peek(3); ok {
		t.Fatal("block still resident after Invalidate")
	}
}

func TestInvalidateVictim(t *testing.T) {
	c := small(2)
	c.Insert(line(1, Shared))
	c.Insert(line(9, Shared)) // 1 -> victim
	if _, ok := c.Invalidate(1); !ok {
		t.Fatal("Invalidate missed victim-resident block")
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("victim line survived Invalidate")
	}
}

func TestInvalidateAbsent(t *testing.T) {
	c := small(2)
	if _, ok := c.Invalidate(42); ok {
		t.Fatal("Invalidate of absent block reported success")
	}
}

func TestInstructionAccounting(t *testing.T) {
	c := small(0)
	c.Lookup(4, true)
	c.Insert(line(4, Shared))
	c.Lookup(4, true)
	if c.Stats.IMisses != 1 || c.Stats.IHits != 1 {
		t.Fatalf("I-stats = %d hits / %d misses, want 1/1", c.Stats.IHits, c.Stats.IMisses)
	}
	if c.Stats.Hits != 0 || c.Stats.Misses != 0 {
		t.Fatal("instruction traffic leaked into data counters")
	}
}

func TestInstructionDataThrash(t *testing.T) {
	// The Figure 3 phenomenon in miniature: a hot data block and a hot
	// instruction block share a set; alternating access with no victim
	// cache misses every time, while a 1-line victim cache absorbs it.
	thrash := func(victim int) (misses uint64) {
		c := small(victim)
		data, code := mem.Block(1), mem.Block(9)
		for i := 0; i < 100; i++ {
			if _, ok := c.Lookup(data, false); !ok {
				c.Insert(line(data, Shared))
			}
			if _, ok := c.Lookup(code, true); !ok {
				c.Insert(line(code, Shared))
			}
		}
		return c.Stats.Misses + c.Stats.IMisses
	}
	without := thrash(0)
	with := thrash(1)
	if without < 190 {
		t.Fatalf("expected pervasive thrashing without victim cache, got %d misses", without)
	}
	if with > 4 {
		t.Fatalf("victim cache should absorb the conflict, got %d misses", with)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero lines did not panic")
		}
	}()
	New(Config{Lines: 0})
}

func TestLineStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" {
		t.Fatal("LineState strings wrong")
	}
}

// Property: a block is never resident twice (direct-mapped slot and victim
// cache may not both hold it), under arbitrary insert/invalidate/lookup
// interleavings.
func TestPropertyNoDuplicateResidency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small(3)
		for _, op := range ops {
			b := mem.Block(op % 32)
			switch (op >> 5) % 3 {
			case 0:
				c.Insert(line(b, Shared))
			case 1:
				c.Invalidate(b)
			case 2:
				c.Lookup(b, false)
			}
			// Count residency of b across the hierarchy.
			count := 0
			for i := range c.slots {
				if c.slots[i].State != Invalid && c.slots[i].Block == b {
					count++
				}
			}
			for i := range c.victim {
				if c.victim[i].State != Invalid && c.victim[i].Block == b {
					count++
				}
			}
			if count > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: inserted data survives until eviction/invalidation — a lookup
// hit always returns the words most recently inserted for that block.
func TestPropertyDataIntegrity(t *testing.T) {
	f := func(blocks []uint8) bool {
		c := small(4)
		latest := map[mem.Block]uint64{}
		for i, raw := range blocks {
			b := mem.Block(raw % 16)
			l := line(b, Shared)
			l.Words[0] = uint64(i) + 1000
			c.Insert(l)
			latest[b] = l.Words[0]
			if got, ok := c.Lookup(b, false); !ok || got.Words[0] != latest[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func assoc(ways, victim int) *Cache {
	return New(Config{Lines: 8, Ways: ways, VictimLines: victim})
}

func TestSetAssociativeCoexistence(t *testing.T) {
	// 8 lines, 2 ways -> 4 sets. Blocks 1 and 5 share set 1 and coexist.
	c := assoc(2, 0)
	c.Insert(line(1, Shared))
	if _, was := c.Insert(line(5, Shared)); was {
		t.Fatal("2-way set rejected a second block")
	}
	if _, ok := c.Lookup(1, false); !ok {
		t.Fatal("first block displaced below associativity")
	}
	if _, ok := c.Lookup(5, false); !ok {
		t.Fatal("second block missing")
	}
	// A third conflicting block displaces the LRU (block 1, since 5 was
	// touched last... 1 was looked up first, then 5: LRU is 1).
	ev, was := c.Insert(line(9, Shared))
	if !was {
		t.Fatal("third conflicting block did not evict")
	}
	if ev.Block != 1 {
		t.Fatalf("evicted %d, want LRU block 1", ev.Block)
	}
}

func TestSetAssociativeLRUOrder(t *testing.T) {
	c := assoc(2, 0)
	c.Insert(line(1, Shared))
	c.Insert(line(5, Shared))
	c.Lookup(1, false) // make 5 the LRU
	ev, _ := c.Insert(line(9, Shared))
	if ev.Block != 5 {
		t.Fatalf("evicted %d, want LRU block 5 after touching 1", ev.Block)
	}
}

func TestSetAssociativeAbsorbsThrash(t *testing.T) {
	// The Figure 3 remedy pair (paper Section 8): the I/D conflict that
	// kills a direct-mapped cache is absorbed equally by a victim cache
	// or a 2-way set-associative organization.
	thrash := func(c *Cache) uint64 {
		data, code := mem.Block(1), mem.Block(9)
		for i := 0; i < 100; i++ {
			if _, ok := c.Lookup(data, false); !ok {
				c.Insert(line(data, Shared))
			}
			if _, ok := c.Lookup(code, true); !ok {
				c.Insert(line(code, Shared))
			}
		}
		return c.Stats.Misses + c.Stats.IMisses
	}
	dm := thrash(assoc(1, 0))
	twoWay := thrash(assoc(2, 0))
	victim := thrash(assoc(1, 1))
	if dm < 190 {
		t.Fatalf("direct-mapped should thrash: %d misses", dm)
	}
	if twoWay > 4 {
		t.Fatalf("2-way should absorb the conflict: %d misses", twoWay)
	}
	if victim > 4 {
		t.Fatalf("victim cache should absorb the conflict: %d misses", victim)
	}
}

func TestBadWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible ways accepted")
		}
	}()
	New(Config{Lines: 8, Ways: 3})
}

func TestInvalidateWithinSet(t *testing.T) {
	c := assoc(2, 0)
	c.Insert(line(1, Shared))
	c.Insert(line(5, Shared))
	if _, ok := c.Invalidate(1); !ok {
		t.Fatal("Invalidate missed a set-resident block")
	}
	if _, ok := c.Peek(5); !ok {
		t.Fatal("Invalidate removed the wrong way")
	}
	// The freed way is reused without eviction.
	if _, was := c.Insert(line(9, Shared)); was {
		t.Fatal("insert into freed way evicted")
	}
}
