package dir

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"swex/internal/mem"
	"swex/internal/sim"
)

func TestPointerSetAddUntilOverflow(t *testing.T) {
	p := NewPointerSet(5)
	for i := mem.NodeID(0); i < 5; i++ {
		if !p.Add(i) {
			t.Fatalf("Add(%d) overflowed below capacity", i)
		}
	}
	if p.Count() != 5 {
		t.Fatalf("Count = %d, want 5", p.Count())
	}
	if p.Add(5) {
		t.Fatal("sixth pointer did not overflow a 5-pointer set")
	}
	if p.Add(3) != true {
		t.Fatal("re-adding a present pointer should succeed even when full")
	}
}

func TestPointerSetRemove(t *testing.T) {
	p := NewPointerSet(2)
	p.Add(7)
	if !p.Remove(7) {
		t.Fatal("Remove of present pointer failed")
	}
	if p.Remove(7) {
		t.Fatal("Remove of absent pointer succeeded")
	}
	if p.Count() != 0 {
		t.Fatalf("Count = %d after remove, want 0", p.Count())
	}
}

func TestPointerSetDrainOrdered(t *testing.T) {
	p := NewPointerSet(5)
	for _, id := range []mem.NodeID{130, 2, 65, 0, 99} {
		p.Add(id)
	}
	got := p.Drain()
	want := []mem.NodeID{0, 2, 65, 99, 130}
	if len(got) != len(want) {
		t.Fatalf("Drain returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain returned %v, want ascending %v", got, want)
		}
	}
	if p.Count() != 0 {
		t.Fatal("Drain did not empty the set")
	}
}

func TestPointerSetListNonDestructive(t *testing.T) {
	p := NewPointerSet(3)
	p.Add(1)
	p.Add(2)
	if got := p.List(); len(got) != 2 {
		t.Fatalf("List = %v, want 2 entries", got)
	}
	if p.Count() != 2 {
		t.Fatal("List modified the set")
	}
}

func TestPointerSetZeroCapacity(t *testing.T) {
	p := NewPointerSet(0)
	if p.Add(0) {
		t.Fatal("zero-capacity set accepted a pointer (Dir_nH_0 has none)")
	}
}

func TestPointerSetBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity beyond MaxNodes did not panic")
		}
	}()
	NewPointerSet(MaxNodes + 1)
}

// Property: Add/Remove maintain Count == |set| and Has agrees with
// membership, with capacity never exceeded.
func TestPointerSetPropertyConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewPointerSet(5)
		ref := map[mem.NodeID]bool{}
		for _, op := range ops {
			id := mem.NodeID(op % MaxNodes)
			if op&0x8000 == 0 {
				if p.Add(id) {
					ref[id] = true
				} else if len(ref) < 5 && !ref[id] {
					return false // refused below capacity
				}
			} else {
				if p.Remove(id) != ref[id] {
					return false
				}
				delete(ref, id)
			}
			if p.Count() != len(ref) || p.Count() > 5 {
				return false
			}
			if p.Has(id) != ref[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntrySharers(t *testing.T) {
	e := &Entry{Ptrs: NewPointerSet(5)}
	if e.Sharers() != 0 {
		t.Fatalf("fresh entry Sharers = %d, want 0", e.Sharers())
	}
	e.Ptrs.Add(1)
	e.Ptrs.Add(2)
	e.LocalBit = true
	e.SwCount = 3
	if e.Sharers() != 6 {
		t.Fatalf("Sharers = %d, want 6 (2 ptrs + local + 3 sw)", e.Sharers())
	}
	e.State = Exclusive
	if e.Sharers() != 7 {
		t.Fatalf("Sharers = %d with owner, want 7", e.Sharers())
	}
}

func TestEntryNoteSharersTracksMax(t *testing.T) {
	e := &Entry{Ptrs: NewPointerSet(5)}
	e.Ptrs.Add(1)
	e.NoteSharers()
	e.Ptrs.Add(2)
	e.NoteSharers()
	e.Ptrs.Clear()
	e.NoteSharers()
	if e.MaxSharers != 2 {
		t.Fatalf("MaxSharers = %d, want 2", e.MaxSharers)
	}
}

func TestDirectoryEntryCreation(t *testing.T) {
	d := New(5)
	e := d.Entry(10)
	if e.State != Uncached {
		t.Fatal("fresh entry not Uncached")
	}
	if e.Ptrs.Cap() != 5 {
		t.Fatalf("entry capacity %d, want 5", e.Ptrs.Cap())
	}
	if d.Entry(10) != e {
		t.Fatal("Entry is not idempotent")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDirectoryPeek(t *testing.T) {
	d := New(2)
	if _, ok := d.Peek(3); ok {
		t.Fatal("Peek invented an entry")
	}
	d.Entry(3)
	if _, ok := d.Peek(3); !ok {
		t.Fatal("Peek missed an existing entry")
	}
}

func TestDirectoryForEachOrdered(t *testing.T) {
	d := New(1)
	for _, b := range []mem.Block{9, 1, 5, 3} {
		d.Entry(b)
	}
	var seen []mem.Block
	d.ForEach(func(b mem.Block, _ *Entry) { seen = append(seen, b) })
	want := []mem.Block{1, 3, 5, 9}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", seen, want)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Uncached: "Uncached", Shared: "Shared", Exclusive: "Exclusive",
		AckWait: "AckWait", Recall: "Recall", SWait: "SWait",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// exerciseDirectory applies n seeded random operations to d and returns
// a log of every result, ending with every entry in block order.
func exerciseDirectory(d *Directory, r *sim.Rand, n int) []string {
	log := make([]string, 0, n+2)
	for i := 0; i < n; i++ {
		b := mem.Block(r.Intn(16))
		switch r.Intn(4) {
		case 0:
			e := d.Entry(b)
			ok := e.Ptrs.Add(mem.NodeID(r.Intn(8)))
			e.State = State(r.Intn(int(SWait) + 1))
			e.NoteSharers()
			log = append(log, fmt.Sprintf("entry %d: %+v %v", b, *e, ok))
		case 1:
			e := d.EntryWithCap(b, r.Intn(4))
			e.Epoch++
			log = append(log, fmt.Sprintf("entry %d with cap: %+v", b, *e))
		case 2:
			e, ok := d.Peek(b)
			var got Entry
			if ok {
				got = *e
			}
			log = append(log, fmt.Sprintf("peek %d: %+v %v", b, got, ok))
		case 3:
			log = append(log, fmt.Sprintf("len %d", d.Len()))
		}
	}
	d.ForEach(func(b mem.Block, e *Entry) { log = append(log, fmt.Sprintf("%d: %+v", b, *e)) })
	return log
}

// Property: a directory Reset to a capacity is indistinguishable from
// New of that capacity, whatever it held and whatever CloneInto left in
// its storage: a second random sequence produces the same results on
// both.
func TestPropertyResetDirectoryIsFresh(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		r := sim.NewRand(seed)
		d := New(r.Intn(6))
		exerciseDirectory(d, r, r.Intn(60))
		if r.Intn(2) == 0 {
			src := New(r.Intn(6))
			exerciseDirectory(src, r, r.Intn(60))
			d = src.CloneInto(d)
		}
		caps := r.Intn(6)
		d.Reset(caps)
		want := New(caps)
		replay := r.Uint64()
		gotLog := exerciseDirectory(d, sim.NewRand(replay), 80)
		wantLog := exerciseDirectory(want, sim.NewRand(replay), 80)
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("seed %d: reset directory diverges from a new one:\n%v\n%v", seed, gotLog, wantLog)
		}
	}
}

// randomBlock draws a block the way homes see them: mostly low segment
// offsets, some at the top of a segment, across several homes.
func randomBlock(r *sim.Rand) mem.Block {
	const segBlocks = mem.SegWords / mem.WordsPerBlock
	home := mem.Block(r.Intn(4)) * segBlocks
	switch r.Intn(3) {
	case 0:
		return home + mem.Block(r.Intn(64))
	case 1:
		return home + segBlocks - 1 - mem.Block(r.Intn(64))
	default:
		return home + mem.Block(r.Intn(segBlocks))
	}
}

// checkAgainstModel compares every observable of d with the reference
// map: Len, Peek of every modeled block and of absent ones, and ForEach's
// ascending walk.
func checkAgainstModel(t *testing.T, seed uint64, d *Directory, model map[mem.Block]Entry, r *sim.Rand) {
	t.Helper()
	if d.Len() != len(model) {
		t.Fatalf("seed %d: Len = %d, model has %d", seed, d.Len(), len(model))
	}
	for b, want := range model {
		e, ok := d.Peek(b)
		if !ok || *e != want {
			t.Fatalf("seed %d: Peek(%d) = %+v %v, want %+v", seed, b, e, ok, want)
		}
	}
	for i := 0; i < 20; i++ {
		b := randomBlock(r)
		if _, in := model[b]; !in {
			if e, ok := d.Peek(b); ok {
				t.Fatalf("seed %d: Peek(%d) found %+v for an absent block", seed, b, *e)
			}
		}
	}
	want := make([]mem.Block, 0, len(model))
	for b := range model {
		want = append(want, b)
	}
	slices.Sort(want)
	var got []mem.Block
	d.ForEach(func(b mem.Block, e *Entry) {
		if *e != model[b] {
			t.Fatalf("seed %d: ForEach(%d) = %+v, want %+v", seed, b, *e, model[b])
		}
		got = append(got, b)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("seed %d: ForEach visits %v, want ascending %v", seed, got, want)
	}
}

// Property: the open-addressed directory reads exactly as a map of
// entries under random creation (both capacities), mutation, CloneInto
// into fresh and reused directories, and Reset; the pointer Entry
// returns stays valid as later entries are added; and a clone is
// independent of its source.
func TestPropertyDirectoryMatchesMapModel(t *testing.T) {
	spare := New(0) // reused across seeds as a CloneInto destination
	for seed := uint64(1); seed <= 60; seed++ {
		r := sim.NewRand(seed)
		caps := r.Intn(6)
		d := New(caps)
		model := map[mem.Block]Entry{}
		held := map[mem.Block]*Entry{}
		for i := 0; i < 600; i++ {
			b := randomBlock(r)
			switch op := r.Intn(20); {
			case op < 8:
				e := d.Entry(b)
				if _, in := model[b]; !in {
					if e.Ptrs.Cap() != caps || e.State != Uncached || e.Ptrs.Count() != 0 {
						t.Fatalf("seed %d: new entry %d is not fresh: %+v", seed, b, *e)
					}
				}
				e.Ptrs.Add(mem.NodeID(r.Intn(MaxNodes)))
				e.Epoch++
				model[b] = *e
				held[b] = e
			case op < 12:
				c := r.Intn(6)
				_, in := model[b]
				e := d.EntryWithCap(b, c)
				if !in && e.Ptrs.Cap() != c {
					t.Fatalf("seed %d: EntryWithCap(%d, %d) made capacity %d", seed, b, c, e.Ptrs.Cap())
				}
				e.AckCount++
				model[b] = *e
				held[b] = e
			case op < 18:
				e, ok := d.Peek(b)
				want, in := model[b]
				if ok != in || ok && *e != want {
					t.Fatalf("seed %d: Peek(%d) = %v, model %v", seed, b, ok, in)
				}
			case op == 18:
				dst := spare
				if r.Intn(2) == 0 {
					dst = nil
				}
				c := d.CloneInto(dst)
				checkAgainstModel(t, seed, c, model, r)
				// The clone is independent: mutating it leaves d alone.
				c.Entry(b).Epoch += 7
				c.Entry(randomBlock(r))
				checkAgainstModel(t, seed, d, model, r)
				if dst != nil {
					spare = c
				}
			default:
				caps = r.Intn(6)
				d.Reset(caps)
				clear(model)
				clear(held)
			}
			for hb, e := range held {
				if p, _ := d.Peek(hb); p != e {
					t.Fatalf("seed %d: the entry of %d moved after it was returned", seed, hb)
				}
			}
		}
		checkAgainstModel(t, seed, d, model, r)
	}
}
