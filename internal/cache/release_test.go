package cache

import (
	"fmt"
	"testing"

	"swex/internal/mem"
	"swex/internal/sim"
)

// releaseGeometries share one line count, so each can reuse a store
// released by any of the others.
var releaseGeometries = []Config{
	{Lines: 64},
	{Lines: 64, Ways: 4},
	{Lines: 64, VictimLines: 8},
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

// freshCache builds a cache on newly made storage, bypassing the pool.
func freshCache(cfg Config) *Cache {
	c := New(cfg)
	c.st = &store{lines: make([]Line, cfg.Lines), written: make([]uint64, (cfg.Lines+63)/64)}
	c.slots = c.st.lines
	return c
}

// Property: after Release, the next New of the same line count, of any
// geometry, is indistinguishable from a cache on fresh storage: it holds
// only zero lines and zero statistics, and a second random sequence
// produces the same results on both.
func TestPropertyReleasedStoreIsFresh(t *testing.T) {
	reused := 0
	for seed := uint64(1); seed <= 150; seed++ {
		r := sim.NewRand(seed)
		first := releaseGeometries[r.Intn(len(releaseGeometries))]
		next := releaseGeometries[r.Intn(len(releaseGeometries))]

		c := New(first)
		st := c.st
		exercise(c, r, 1+r.Intn(300))
		c.Release()

		got := New(next)
		if got.st == st {
			reused++
		}
		for i, l := range got.slots {
			if l != (Line{}) {
				t.Fatalf("seed %d: line %d of a reused store is %+v, want zero", seed, i, l)
			}
		}
		if got.Stats != (Stats{}) || len(got.victim) != 0 {
			t.Fatalf("seed %d: new cache starts with stats %+v and %d victim lines", seed, got.Stats, len(got.victim))
		}

		want := freshCache(next)
		replay := r.Uint64()
		gotLog := exercise(got, sim.NewRand(replay), 300)
		wantLog := exercise(want, sim.NewRand(replay), 300)
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: step %d on a reused store: %s, fresh storage: %s", seed, i, gotLog[i], wantLog[i])
			}
		}
		got.Release()
		want.Release()
	}
	// The pool may drop a store (a GC cycle, or the race detector's
	// deliberate drops); the property is only tested when it does not.
	if reused == 0 {
		t.Fatal("no New reused a released store")
	}
}

func TestReleasedCachePanics(t *testing.T) {
	c := New(Config{Lines: 64})
	c.Insert(line(3, Shared))
	c.Release()
	defer func() {
		if recover() == nil {
			t.Error("Lookup on a released cache did not panic")
		}
	}()
	c.Lookup(3, false)
}
