package sim

import (
	"fmt"
	"slices"
	"testing"
)

// queueKey is the reference model's copy of an event's total-order key.
type queueKey struct {
	at    Cycle
	owner int32
	cnt   uint64
}

func (a queueKey) less(b queueKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.cnt < b.cnt
}

// queueDriver applies a shared operation stream to one engine and logs
// the ids of the events it fires.
type queueDriver struct {
	e     *Engine
	fired []int
}

// idCaller logs its id into its driver when it fires. It is also the
// event's tag, so PendingTagged names the pending ids.
type idCaller struct {
	id int
	d  *queueDriver
}

func (c *idCaller) Fire() { c.d.fired = append(c.d.fired, c.id) }

// schedule enqueues event id delay cycles out, owned by owner or unkeyed
// when owner is negative.
func (d *queueDriver) schedule(id int, delay Cycle, owner int) {
	c := &idCaller{id: id, d: d}
	if owner < 0 {
		d.e.AfterCall(delay, c, c)
	} else {
		d.e.OwnedAfterCall(owner, delay, c, c)
	}
}

// cloneInto copies d's engine into dst, remapping every receiver onto a
// new driver.
func (d *queueDriver) cloneInto(dst *Engine) (*queueDriver, error) {
	n := &queueDriver{}
	e, err := d.e.CloneInto(dst, func(c Caller, tag any) (Caller, any, error) {
		ic := c.(*idCaller)
		if tag != c {
			return nil, nil, fmt.Errorf("event %d tagged %v", ic.id, tag)
		}
		nc := &idCaller{id: ic.id, d: n}
		return nc, nc, nil
	})
	n.e = e
	return n, err
}

// queueDelay draws a scheduling delay: mostly short, with the wheel
// span's edges and the far heap's range well represented.
func queueDelay(r *Rand) Cycle {
	switch r.Intn(4) {
	case 0, 1:
		return Cycle(r.Intn(6))
	case 2:
		return wheelSpan - 1 + Cycle(r.Intn(3))
	default:
		return Cycle(r.Intn(3*wheelSpan + 1))
	}
}

// staleEngine returns an engine that has run and still holds events of
// its own, logged into a driver added to stales: it lends its storage to
// CloneInto, which must drop those events.
func staleEngine(r *Rand, stales *[]*queueDriver) *Engine {
	d := &queueDriver{e: NewEngine()}
	d.e.SetStreams(make([]uint64, 2))
	for i := 0; i < 1+r.Intn(300); i++ {
		d.schedule(-1, queueDelay(r), r.Intn(3)-1)
	}
	d.e.Run(d.e.Now() + Cycle(r.Intn(2*wheelSpan)))
	d.fired = nil
	*stales = append(*stales, d)
	return d.e
}

// TestEngineQueueFiresSortedKeyOrder is a seeded property test of the
// event queue against a plain reference model. Each seed interleaves
// owned and unkeyed scheduling, with delays from zero to three wheel
// spans and many at the span's edge, with Steps. Every Step must fire
// the pending event least in (at, owner, cnt) order, Next must name it,
// and PendingTagged must list the model's sorted pending events. At
// random points the engine is copied, into a fresh engine or into the
// storage of a used one; the same operations then drive the original and
// every copy, and each copy must fire exactly the original's sequence
// from its copy point on, and nothing of the storage it reused.
func TestEngineQueueFiresSortedKeyOrder(t *testing.T) {
	const (
		owners = 4
		ops    = 4000
	)
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		orig := &queueDriver{e: NewEngine()}
		orig.e.SetStreams(make([]uint64, owners))
		var streams [owners]uint64
		var seq uint64 // the engine's sequence: one per scheduling call
		var keys []queueKey
		var pending []int // ids of the model's pending events

		type copied struct {
			d    *queueDriver
			from int // len(orig.fired) when copied
		}
		var copies []copied
		var stales []*queueDriver
		drivers := func() []*queueDriver {
			ds := []*queueDriver{orig}
			for _, c := range copies {
				ds = append(ds, c.d)
			}
			return ds
		}
		sorted := func() []int {
			s := slices.Clone(pending)
			slices.SortFunc(s, func(a, b int) int {
				if keys[a].less(keys[b]) {
					return -1
				}
				return 1
			})
			return s
		}

		for op := 0; op < ops; op++ {
			switch k := r.Intn(100); {
			case k < 50:
				id, delay := len(keys), queueDelay(r)
				at := orig.e.Now() + delay
				owner := r.Intn(owners+1) - 1
				if owner < 0 {
					keys = append(keys, queueKey{at, unkeyedOwner, seq})
				} else {
					keys = append(keys, queueKey{at, int32(owner), streams[owner]})
					streams[owner]++
				}
				seq++
				pending = append(pending, id)
				for _, d := range drivers() {
					d.schedule(id, delay, owner)
				}
			case k < 95:
				want := -1
				if len(pending) > 0 {
					want = sorted()[0]
				}
				next, ok := orig.e.Next()
				if ok != (want >= 0) {
					t.Fatalf("seed %d op %d: Next ok = %v with %d pending in the model", seed, op, ok, len(pending))
				}
				for _, d := range drivers() {
					d.e.Step()
				}
				if want < 0 {
					continue
				}
				if got := orig.fired[len(orig.fired)-1]; got != want {
					t.Fatalf("seed %d op %d: fired event %d %+v, want %d %+v", seed, op, got, keys[got], want, keys[want])
				}
				if next.Tag.(*idCaller).id != want || next.At != keys[want].at {
					t.Fatalf("seed %d op %d: Next named %d at %d, Step fired %d", seed, op, next.Tag.(*idCaller).id, next.At, want)
				}
				if orig.e.Now() != keys[want].at {
					t.Fatalf("seed %d op %d: clock at %d after firing an event for cycle %d", seed, op, orig.e.Now(), keys[want].at)
				}
				pending = slices.DeleteFunc(pending, func(id int) bool { return id == want })
			case k < 98:
				var got []int
				for _, ev := range orig.e.PendingTagged(nil) {
					got = append(got, ev.Tag.(*idCaller).id)
				}
				if want := sorted(); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: PendingTagged %v, model %v", seed, op, got, want)
				}
			default:
				var dst *Engine
				switch {
				case r.Intn(3) == 0:
				case len(copies) > 0 && r.Intn(2) == 0:
					// Retire a copy and lend its storage.
					j := r.Intn(len(copies))
					c := copies[j]
					if !slices.Equal(c.d.fired, orig.fired[c.from:]) {
						t.Fatalf("seed %d op %d: copy fired %v, original %v", seed, op, c.d.fired, orig.fired[c.from:])
					}
					copies = slices.Delete(copies, j, j+1)
					dst = c.d.e
				default:
					dst = staleEngine(r, &stales)
				}
				d, err := orig.cloneInto(dst)
				if err != nil {
					t.Fatal(err)
				}
				if d.e.Now() != orig.e.Now() || d.e.Pending() != orig.e.Pending() || d.e.Fired() != 0 {
					t.Fatalf("seed %d op %d: copy at cycle %d with %d pending and %d fired; original at %d with %d pending",
						seed, op, d.e.Now(), d.e.Pending(), d.e.Fired(), orig.e.Now(), orig.e.Pending())
				}
				copies = append(copies, copied{d, len(orig.fired)})
			}
		}
		want := sorted()
		for _, d := range drivers() {
			d.e.Run(0)
		}
		if got := orig.fired[len(orig.fired)-len(want):]; len(orig.fired) != len(keys) || !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired %d of %d events, draining %v; model %v", seed, len(orig.fired), len(keys), got, want)
		}
		for _, c := range copies {
			if !slices.Equal(c.d.fired, orig.fired[c.from:]) {
				t.Fatalf("seed %d: copy fired %v, original %v", seed, c.d.fired, orig.fired[c.from:])
			}
		}
		for _, d := range stales {
			if len(d.fired) != 0 {
				t.Fatalf("seed %d: a copy fired %d events of the engine whose storage it reused", seed, len(d.fired))
			}
		}
	}
}

// runQueue applies n seeded random operations to e and returns its fire
// log: each fired event's id and cycle. It ends with a limited Run, so
// the engine is left holding events, as after a run that hit its limit.
func runQueue(e *Engine, r *Rand, n int) []string {
	d := &queueDriver{e: e}
	e.SetStreams(make([]uint64, 3))
	var log []string
	logged := 0
	record := func() {
		for _, id := range d.fired[logged:] {
			log = append(log, fmt.Sprintf("%d@%d", id, e.Now()))
		}
		logged = len(d.fired)
	}
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			d.schedule(i, queueDelay(r), r.Intn(4)-1)
		} else {
			e.Step()
			record()
		}
	}
	now, drained := e.Run(e.Now() + Cycle(r.Intn(wheelSpan)))
	record()
	return append(log, fmt.Sprintf("stopped at %d drained %v pending %d", now, drained, e.Pending()))
}

// Property: an engine after Reset is indistinguishable from a new one,
// however many events it left pending in the wheel and far heap, and it
// keeps its storage.
func TestResetEngineIsFresh(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		r := NewRand(seed)
		got := NewEngine()
		lists := got.q.lists
		runQueue(got, r, 1+r.Intn(600))
		got.Observer = func(Cycle, int) {}
		got.Reset()

		if got.q.lists != lists {
			t.Fatalf("seed %d: Reset replaced the bucket arrays", seed)
		}
		if got.Now() != 0 || got.Pending() != 0 || got.Fired() != 0 || got.seq != 0 || len(got.q.slots) != 1 ||
			len(got.q.far) != 0 || got.q.free != 0 || got.q.occ != [wheelWords]uint64{} ||
			got.streams != nil || got.Observer != nil {
			t.Fatalf("seed %d: reset engine starts at %d with %d pending, %d slots, %d far, occupancy %x",
				seed, got.Now(), got.Pending(), len(got.q.slots), len(got.q.far), got.q.occ)
		}
		for i, s := range got.q.slots[:cap(got.q.slots)] {
			if s.call != nil || s.tag != nil {
				t.Fatalf("seed %d: slot %d of a reset slab still holds a receiver", seed, i)
			}
		}

		want := NewEngine()
		replay := r.Uint64()
		gotLog := runQueue(got, NewRand(replay), 600)
		wantLog := runQueue(want, NewRand(replay), 600)
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("seed %d: reset engine fired %v, new engine %v", seed, gotLog, wantLog)
		}
	}
}
