package sim

import "testing"

// TestEngineHeapFiresSortedKeyOrder is a seeded property test of the
// event heap against a plain reference model. Each seed interleaves owned
// (OwnedAtCall) and unkeyed (At) scheduling at random near-future cycles
// — so ties are common — with random Cancel calls on pending, fired, and
// already-cancelled IDs, and with Steps. Every Step must fire exactly the
// pending event that is least in (at, owner, cnt) order, and cancelling
// an ID that is no longer pending must return false and leave the queue
// untouched, even after its pooled slot has been reused.
func TestEngineHeapFiresSortedKeyOrder(t *testing.T) {
	type key struct {
		at    Cycle
		owner int32
		cnt   uint64
	}
	less := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		return a.cnt < b.cnt
	}
	const (
		owners = 4
		ops    = 3000
	)
	const (
		pending = iota
		fired
	)
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		e := NewEngine()
		e.SetStreams(make([]uint64, owners))
		var streams [owners]uint64
		var seq uint64 // the engine's sequence: one per scheduling call
		var keys []key
		var state []int
		last := -1 // index of the most recently fired event
		step := func() {
			best := -1
			for i, s := range state {
				if s == pending && (best < 0 || less(keys[i], keys[best])) {
					best = i
				}
			}
			last = -1
			if got := e.Step(); got != (best >= 0) {
				t.Fatalf("seed %d: Step = %v with %d pending in the model", seed, got, e.Pending())
			}
			if best < 0 {
				return
			}
			if last != best {
				t.Fatalf("seed %d: fired event %d %+v, want %d %+v", seed, last, keys[last], best, keys[best])
			}
			if e.Now() != keys[best].at {
				t.Fatalf("seed %d: clock at %d after firing an event for cycle %d", seed, e.Now(), keys[best].at)
			}
			state[best] = fired
		}
		for op := 0; op < ops; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				i := len(keys)
				fn := funcCaller(func() { last = i })
				at := e.Now() + Cycle(r.Intn(6))
				var kk key
				if r.Intn(2) == 0 {
					o := r.Intn(owners)
					e.OwnedAtCall(o, at, nil, fn)
					kk = key{at, int32(o), streams[o]}
					streams[o]++
				} else {
					e.AtCall(at, nil, fn)
					kk = key{at, unkeyedOwner, seq}
				}
				seq++
				keys, state = append(keys, kk), append(state, pending)
			default:
				step()
			}
		}
		for e.Pending() > 0 {
			step()
		}
		for i, s := range state {
			if s == pending {
				t.Fatalf("seed %d: event %d %+v never fired", seed, i, keys[i])
			}
		}
	}
}
