package cache

import (
	"fmt"
	"testing"

	"swex/internal/mem"
	"swex/internal/sim"
)

// resetGeometries mix line counts, so a reset cache sometimes keeps its
// line array under another geometry and sometimes needs a new one.
var resetGeometries = []Config{
	{Lines: 64},
	{Lines: 64, Ways: 4},
	{Lines: 64, VictimLines: 8},
	{Lines: 32, Ways: 2, VictimLines: 2},
}

// exercise applies n seeded random operations to c and returns a log of
// every result, including the final statistics and residency. Hits
// sometimes write through the returned pointer, as the cache controller
// does on a store.
func exercise(c *Cache, r *sim.Rand, n int) []string {
	log := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		b := mem.Block(r.Intn(4 * c.cfg.Lines))
		switch r.Intn(4) {
		case 0:
			l := Line{Block: b, State: Shared + LineState(r.Intn(2)), Dirty: r.Intn(2) == 0}
			l.Words[r.Intn(mem.WordsPerBlock)] = r.Uint64()
			ev, was := c.Insert(l)
			log = append(log, fmt.Sprintf("insert %d: %+v %v", b, ev, was))
		case 1:
			l, ok := c.Lookup(b, r.Intn(4) == 0)
			if ok && r.Intn(2) == 0 {
				l.Words[0]++
				l.Dirty = true
			}
			var got Line
			if ok {
				got = *l
			}
			log = append(log, fmt.Sprintf("lookup %d: %+v %v", b, got, ok))
		case 2:
			l, ok := c.Invalidate(b)
			log = append(log, fmt.Sprintf("invalidate %d: %+v %v", b, l, ok))
		case 3:
			l, ok := c.Peek(b)
			log = append(log, fmt.Sprintf("peek %d: %+v %v", b, l, ok))
		}
	}
	return append(log, fmt.Sprintf("stats %+v resident %d", c.Stats, c.Resident()))
}

// Property: after Reset, a cache of any geometry is indistinguishable
// from a new one: it holds only zero lines and zero statistics, and a
// second random sequence produces the same results on both. A reset to
// the same line count keeps the line array.
func TestPropertyResetCacheIsFresh(t *testing.T) {
	kept := 0
	for seed := uint64(1); seed <= 150; seed++ {
		r := sim.NewRand(seed)
		first := resetGeometries[r.Intn(len(resetGeometries))]
		next := resetGeometries[r.Intn(len(resetGeometries))]

		got := New(first)
		st := got.st
		exercise(got, r, 1+r.Intn(300))
		got.Reset(next)
		if got.st == st {
			kept++
		} else if first.Lines == next.Lines {
			t.Fatalf("seed %d: Reset to %d lines replaced a %d-line array", seed, next.Lines, first.Lines)
		}
		for i, l := range got.slots {
			if l != (Line{}) {
				t.Fatalf("seed %d: line %d of a reset cache is %+v, want zero", seed, i, l)
			}
		}
		if got.Stats != (Stats{}) || len(got.victim) != 0 || got.cfg != next {
			t.Fatalf("seed %d: reset cache starts with stats %+v, %d victim lines, geometry %+v",
				seed, got.Stats, len(got.victim), got.cfg)
		}

		want := New(next)
		replay := r.Uint64()
		gotLog := exercise(got, sim.NewRand(replay), 300)
		wantLog := exercise(want, sim.NewRand(replay), 300)
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: step %d on a reset cache: %s, new cache: %s", seed, i, gotLog[i], wantLog[i])
			}
		}
	}
	if kept == 0 {
		t.Fatal("no Reset kept its line array")
	}
}
