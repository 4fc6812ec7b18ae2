package mesh

import (
	"testing"
	"testing/quick"

	"swex/internal/sim"
)

// fire adapts a func to sim.Caller for tests.
type fire func()

func (f fire) Fire() { f() }

func TestDimensions(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1},
		{2, 1, 2},
		{4, 2, 2},
		{16, 4, 4},
		{64, 8, 8},
		{256, 16, 16},
		{12, 3, 4},
		{0, 1, 1},
	}
	for _, c := range cases {
		w, h := Dimensions(c.n)
		if w != c.w || h != c.h {
			t.Errorf("Dimensions(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func newNet(t *testing.T, n int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, DefaultConfig(n))
}

func TestHops(t *testing.T) {
	_, net := newNet(t, 16) // 4x4
	if got := net.Hops(0, 0); got != 0 {
		t.Fatalf("Hops(0,0) = %d, want 0", got)
	}
	if got := net.Hops(0, 3); got != 3 {
		t.Fatalf("Hops(0,3) = %d, want 3", got)
	}
	if got := net.Hops(0, 15); got != 6 {
		t.Fatalf("Hops(0,15) = %d, want 6 (corner to corner of 4x4)", got)
	}
	if got := net.Hops(5, 6); got != 1 {
		t.Fatalf("Hops(5,6) = %d, want 1", got)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	_, net := newNet(t, 16)
	for id := 0; id < 16; id++ {
		x, y := net.Coord(id)
		if y*4+x != id {
			t.Fatalf("Coord(%d) = (%d,%d), does not invert", id, x, y)
		}
	}
}

func TestSendLatencyUncontended(t *testing.T) {
	e, net := newNet(t, 16)
	// cfg: hop=2, flit=1. src=0, dst=3: 3 hops.
	// inject: 4 flits = 4 cycles; flight 6; receive 4. total 14.
	var deliveredAt sim.Cycle
	at := net.SendCall(0, 3, 4, 0, nil, fire(func() { deliveredAt = e.Now() }))
	e.Run(0)
	if at != 14 {
		t.Fatalf("predicted delivery %d, want 14", at)
	}
	if deliveredAt != 14 {
		t.Fatalf("delivered at %d, want 14", deliveredAt)
	}
}

func TestSendLocalLoopback(t *testing.T) {
	e, net := newNet(t, 16)
	at := net.SendCall(5, 5, 2, 0, nil, fire(func() {}))
	e.Run(0)
	// inject 2 + local 2 = 4
	if at != 4 {
		t.Fatalf("local delivery at %d, want 4", at)
	}
	if net.HopTotal != 0 {
		t.Fatal("local message should not accumulate hops")
	}
}

func TestSendMinimumSize(t *testing.T) {
	e, net := newNet(t, 4)
	at := net.SendCall(0, 1, 0, 0, nil, fire(func() {})) // size clamped to 1
	e.Run(0)
	// inject 1 + 1 hop * 2 + receive 1 = 4
	if at != 4 {
		t.Fatalf("zero-size message delivered at %d, want 4", at)
	}
}

func TestTransmitQueueContention(t *testing.T) {
	e, net := newNet(t, 16)
	// Two messages from node 0 at cycle 0: second must wait for first's
	// injection (4 cycles) before starting its own.
	a := net.SendCall(0, 3, 4, 0, nil, fire(func() {}))
	b := net.SendCall(0, 3, 4, 0, nil, fire(func() {}))
	e.Run(0)
	if a != 14 {
		t.Fatalf("first delivery %d, want 14", a)
	}
	// second: inject starts at 4, done 8; flight ->14; rx busy 14-18 from
	// first, so rx starts 18, done 22... wait first rx: arrival 10, rx
	// 10-14. second arrival 8+6=14, rx 14-18.
	if b != 18 {
		t.Fatalf("second delivery %d, want 18", b)
	}
}

func TestReceiveQueueContention(t *testing.T) {
	e, net := newNet(t, 16)
	// Two different sources, same destination, equidistant.
	a := net.SendCall(1, 0, 4, 0, nil, fire(func() {})) // 1 hop
	b := net.SendCall(4, 0, 4, 0, nil, fire(func() {})) // 1 hop (node 4 is (0,1))
	e.Run(0)
	// Both arrive at 4+2=6; rx serializes: first 6-10, second 10-14.
	if a != 10 {
		t.Fatalf("first delivery %d, want 10", a)
	}
	if b != 14 {
		t.Fatalf("second delivery %d, want 14 (receive queue contention)", b)
	}
}

func TestStatistics(t *testing.T) {
	e, net := newNet(t, 16)
	net.SendCall(0, 3, 4, 0, nil, fire(func() {}))
	net.SendCall(0, 0, 2, 0, nil, fire(func() {}))
	e.Run(0)
	if net.Messages != 2 {
		t.Fatalf("Messages = %d, want 2", net.Messages)
	}
	if net.Flits != 6 {
		t.Fatalf("Flits = %d, want 6", net.Flits)
	}
	if net.MeanHops() != 1.5 {
		t.Fatalf("MeanHops = %v, want 1.5 (3 hops over 2 msgs)", net.MeanHops())
	}
	if net.RxWaited(3) != 0 {
		t.Fatal("uncontended receive should not wait")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("degenerate mesh config did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Width: 0, Height: 4})
}

// Property: hop distance is a metric: symmetric, zero iff equal, and obeys
// the triangle inequality.
func TestHopsPropertyMetric(t *testing.T) {
	_, net := newNet(t, 64)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		if net.Hops(x, y) != net.Hops(y, x) {
			return false
		}
		if (net.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return net.Hops(x, z) <= net.Hops(x, y)+net.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time is at least the uncontended minimum latency.
func TestSendPropertyMinLatency(t *testing.T) {
	f := func(pairs []uint16) bool {
		e := sim.NewEngine()
		cfg := DefaultConfig(16)
		net := New(e, cfg)
		ok := true
		for _, p := range pairs {
			src := int(p) % 16
			dst := int(p>>4) % 16
			size := int(p>>8)%4 + 1
			now := e.Now()
			at := net.SendCall(src, dst, size, 0, nil, fire(func() {}))
			var minLat sim.Cycle
			if src == dst {
				minLat = sim.Cycle(size)*cfg.FlitCycles + cfg.LocalCycles
			} else {
				minLat = 2*sim.Cycle(size)*cfg.FlitCycles +
					sim.Cycle(net.Hops(src, dst))*cfg.HopCycles
			}
			if at < now+minLat {
				ok = false
			}
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSendExtraDelay(t *testing.T) {
	e, net := newNet(t, 16)
	at := net.SendCall(0, 3, 4, 10, nil, fire(func() {}))
	e.Run(0)
	// inject: extra 10 + 4 flits = 14; flight 6; receive 4 -> 24.
	if at != 24 {
		t.Fatalf("delayed delivery at %d, want 24", at)
	}
}

func TestDeliveryFollowsCallOrder(t *testing.T) {
	// A slow data reply sent first must not be overtaken by a fast
	// control message sent immediately afterwards — the coherence
	// protocol's data-before-invalidation invariant.
	e, net := newNet(t, 16)
	var order []string
	net.SendCall(0, 3, 6, 50, nil, fire(func() { order = append(order, "data") }))
	net.SendCall(0, 3, 2, 0, nil, fire(func() { order = append(order, "inv") }))
	e.Run(0)
	if len(order) != 2 || order[0] != "data" || order[1] != "inv" {
		t.Fatalf("delivery order %v, want [data inv]", order)
	}
}

func TestDeliveryOrderCrossSource(t *testing.T) {
	// Even across sources, deliveries to one destination follow send-call
	// order (the receive queue is reserved at call time).
	e, net := newNet(t, 16)
	var order []string
	net.SendCall(15, 0, 6, 40, nil, fire(func() { order = append(order, "far") }))
	net.SendCall(1, 0, 2, 0, nil, fire(func() { order = append(order, "near") }))
	e.Run(0)
	if order[0] != "far" {
		t.Fatalf("delivery order %v, want far first (call order)", order)
	}
}
