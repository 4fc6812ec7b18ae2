package proto

import (
	"slices"
	"strings"
	"testing"

	"swex/internal/mem"
	"swex/internal/sim"
)

// Property: the in-flight registry list behaves as the send-ordered
// slice it replaced under pushes and retires in any order.
func TestPropertyFlightListMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rnd := sim.NewRand(seed)
		var l flightList
		var ref []*flight
		for i := 0; i < 400; i++ {
			if len(ref) == 0 || rnd.Intn(5) < 3 {
				fl := &flight{m: Msg{Block: mem.Block(i)}}
				l.push(fl)
				ref = append(ref, fl)
			} else {
				j := rnd.Intn(len(ref))
				l.remove(ref[j])
				ref = slices.Delete(ref, j, j+1)
			}
			got := make([]*flight, 0, l.n)
			for fl := l.head; fl != nil; fl = fl.next {
				got = append(got, fl)
			}
			if l.n != len(ref) || !slices.Equal(got, ref) {
				t.Fatalf("seed %d step %d: registry %d entries, want %d (order differs: %v)",
					seed, i, l.n, len(ref), !slices.Equal(got, ref))
			}
			if len(ref) > 0 && (l.head != ref[0] || l.tail != ref[len(ref)-1]) {
				t.Fatalf("seed %d step %d: head or tail is not the oldest or newest entry", seed, i)
			}
		}
	}
}

// Property: on a fabric carrying real, out-of-order traffic, InFlight
// lists exactly the messages whose deliveries are pending, in the order
// they were sent, and a clone's registry holds copies in the same order,
// with remap sending each pending delivery to the copy at the same place.
func TestPropertyInFlightSendOrderAndClone(t *testing.T) {
	specs := []Spec{FullMap(), LimitLESS(2), OnePointer(AckLACK), OnePointer(AckSW), SoftwareOnly()}
	for seed := uint64(1); seed <= 30; seed++ {
		rnd := sim.NewRand(seed)
		r := newRig(t, 4, specs[rnd.Intn(len(specs))])
		var sent eventLog
		r.f.Trace = &sent
		addrs := r.mem.AllocStriped(2 * mem.WordsPerBlock)
		var clone *Fabric
		for step := 0; step < 40; step++ {
			a := addrs[rnd.Intn(len(addrs))] + mem.Addr(rnd.Intn(2*mem.WordsPerBlock))
			op := Op{ID: uint64(step)}
			if rnd.Intn(2) == 0 {
				op.Write, op.Value = true, uint64(step)
			}
			r.f.Cache(mem.NodeID(rnd.Intn(r.f.Nodes()))).Access(a, op)
			events, k := rnd.Intn(12), 0
			r.engine.RunUntil(func() bool { k++; return k > events }, 0)

			live := r.f.InFlight()
			msgs := make([]string, 0, len(sent))
			for _, ev := range sent {
				if s, ok := strings.CutPrefix(ev, "msg "); ok {
					msgs = append(msgs, s)
				}
			}
			next := 0
			for _, m := range live {
				for next < len(msgs) && msgs[next] != m.String() {
					next++
				}
				if next == len(msgs) {
					t.Fatalf("seed %d step %d: in-flight %v not in send order %v", seed, step, live, msgs)
				}
				next++
			}
			place := map[*flight]int{}
			for fl, i := r.f.inflight.head, 0; fl != nil; fl, i = fl.next, i+1 {
				place[fl] = i
			}
			var pending []*flight
			for _, ev := range r.engine.PendingTagged(nil) {
				if fl, ok := ev.Tag.(*flight); ok {
					if _, ok := place[fl]; !ok {
						t.Fatalf("seed %d step %d: pending delivery of %s is not registered", seed, step, fl.m)
					}
					pending = append(pending, fl)
				}
			}
			if len(pending) != len(live) {
				t.Fatalf("seed %d step %d: %d pending deliveries, %d registered", seed, step, len(pending), len(live))
			}

			var err error
			if clone, err = r.f.CloneInto(clone, nil); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got := clone.InFlight(); !slices.Equal(got, live) {
				t.Fatalf("seed %d step %d: clone in flight %v, want %v", seed, step, got, live)
			}
			copies := make([]*flight, 0, clone.inflight.n)
			for fl := clone.inflight.head; fl != nil; fl = fl.next {
				copies = append(copies, fl)
			}
			for _, fl := range pending {
				c, err := r.f.remap(clone, fl)
				if err != nil {
					t.Fatalf("seed %d step %d: remap: %v", seed, step, err)
				}
				if c != copies[place[fl]] {
					t.Fatalf("seed %d step %d: %s remapped off its place %d", seed, step, fl.m, place[fl])
				}
			}
		}
		r.engine.Run(0)
		if r.f.inflight.n != 0 || r.f.inflight.head != nil || r.f.inflight.tail != nil {
			t.Fatalf("seed %d: %d messages registered after the queue drained", seed, r.f.inflight.n)
		}
	}
}
