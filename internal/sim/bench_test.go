package sim

import "testing"

// delayMix is the scheduling-delay histogram measured on the 256-node
// TSP full-map run (829,641 schedules): percent of schedules per delay
// range [lo, hi]. The 2% the measurement left between the listed ranges
// sits in 64–255.
var delayMix = []struct {
	pct    int
	lo, hi Cycle
}{
	{58, 1, 1},
	{10, 2, 15},
	{10, 16, 63},
	{2, 64, 255},
	{18, 256, 1023},
	{2, 4096, 8191},
}

// mixTicker is one owner's event: each firing reschedules it under the
// owner's key with the next delay from the table.
type mixTicker struct {
	e      *Engine
	owner  int
	delays []Cycle
	k      int
}

func (t *mixTicker) Fire() {
	t.k++
	t.e.OwnedAfterCall(t.owner, t.delays[t.k%len(t.delays)], nil, t)
}

// BenchmarkEngineDelayMix times one scheduled-and-fired event on a queue
// shaped like the 256-node TSP run's: 256 owners with one pending event
// each, owned keys, and delays drawn from delayMix.
func BenchmarkEngineDelayMix(b *testing.B) {
	const owners = 256
	r := NewRand(1)
	delays := make([]Cycle, 4096)
	for i := range delays {
		p := r.Intn(100)
		for _, m := range delayMix {
			if p < m.pct {
				delays[i] = m.lo + Cycle(r.Intn(int(m.hi-m.lo)+1))
				break
			}
			p -= m.pct
		}
	}
	e := NewEngine()
	e.SetStreams(make([]uint64, owners))
	for o := 0; o < owners; o++ {
		t := &mixTicker{e: e, owner: o, delays: delays, k: o * 13}
		e.OwnedAfterCall(o, delays[t.k%len(delays)], nil, t)
	}
	// Warm up until the queue's storage has reached its steady size.
	for i := 0; i < 100_000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
