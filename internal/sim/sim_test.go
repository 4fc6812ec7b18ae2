package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at cycle %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events, want 0", e.Pending())
	}
}

func TestEngineFiresInCycleOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	for _, c := range []Cycle{30, 10, 20} {
		c := c
		e.At(c, func() { order = append(order, c) })
	}
	e.Run(0)
	want := []Cycle{10, 20, 30}
	for i, c := range want {
		if order[i] != c {
			t.Fatalf("event %d fired for cycle %d, want %d", i, order[i], c)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("engine at cycle %d after run, want 30", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of scheduling order: pos %d got %d", i, v)
		}
	}
}

// TestOwnedKeysOrderTiesByOwner pins the owned-key discipline: with
// streams installed, same-cycle events fire in owner order and, within an
// owner, in that owner's scheduling order — however the scheduling calls
// of different owners interleave.
func TestOwnedKeysOrderTiesByOwner(t *testing.T) {
	run := func(owners []int) []int {
		e := NewEngine()
		e.SetStreams(make([]uint64, 2))
		var fired []int
		seq := []int{0, 0}
		for _, o := range owners {
			o, n := o, seq[o]
			seq[o]++
			e.OwnedAt(o, 10, nil, func() { fired = append(fired, 10*o+n) })
		}
		e.Run(0)
		return fired
	}
	want := []int{0, 1, 2, 10, 11, 12} // owner 0's three events, then owner 1's
	for _, owners := range [][]int{{0, 0, 0, 1, 1, 1}, {1, 1, 1, 0, 0, 0}, {1, 0, 1, 0, 0, 1}} {
		got := run(owners)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("scheduling order %v fired %v, want %v", owners, got, want)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.At(100, func() {
		e.After(7, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 107 {
		t.Fatalf("After(7) from cycle 100 fired at %d, want 107", at)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel of pending event returned false")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ids []EventID
	for i := 0; i < 10; i++ {
		i := i
		ids = append(ids, e.At(Cycle(i+1), func() { fired = append(fired, i) }))
	}
	e.Cancel(ids[5])
	e.Cancel(ids[0])
	e.Cancel(ids[9])
	e.Run(0)
	want := []int{1, 2, 3, 4, 6, 7, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Cycle(i*10), func() { count++ })
	}
	now, drained := e.Run(55)
	if drained {
		t.Fatal("Run reported drained with events pending")
	}
	if now != 55 {
		t.Fatalf("Run stopped at cycle %d, want 55", now)
	}
	if count != 5 {
		t.Fatalf("fired %d events before limit, want 5", count)
	}
	now, drained = e.Run(0)
	if !drained || now != 100 {
		t.Fatalf("final Run got (%d,%v), want (100,true)", now, drained)
	}
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Cycle(i), func() { count++ })
	}
	ok := e.RunUntil(func() bool { return count == 3 }, 0)
	if !ok {
		t.Fatal("RunUntil did not report condition satisfied")
	}
	if count != 3 {
		t.Fatalf("RunUntil fired %d events, want 3", count)
	}
	if e.Now() != 3 {
		t.Fatalf("engine at %d, want 3", e.Now())
	}
	ok = e.RunUntil(func() bool { return count == 100 }, 0)
	if ok {
		t.Fatal("RunUntil reported success for unreachable condition")
	}
	if count != 10 {
		t.Fatalf("queue should have drained; fired %d", count)
	}
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Cycle(i), func() {})
	}
	e.Run(0)
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 50 {
			e.After(1, grow)
		}
	}
	e.At(0, grow)
	e.Run(0)
	if depth != 50 {
		t.Fatalf("chained scheduling reached depth %d, want 50", depth)
	}
	if e.Now() != 49 {
		t.Fatalf("engine at %d, want 49", e.Now())
	}
}

func TestServerNoContention(t *testing.T) {
	var s Server
	start := s.Reserve(100, 10)
	if start != 100 {
		t.Fatalf("idle server started job at %d, want 100", start)
	}
	if s.FreeAt() != 110 {
		t.Fatalf("server free at %d, want 110", s.FreeAt())
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	s.Reserve(100, 10)
	start := s.Reserve(100, 5)
	if start != 110 {
		t.Fatalf("second job started at %d, want 110 (after first)", start)
	}
	if s.Waited != 10 {
		t.Fatalf("waited %d, want 10", s.Waited)
	}
	start = s.Reserve(200, 5)
	if start != 200 {
		t.Fatalf("late job started at %d, want 200", start)
	}
}

func TestServerStats(t *testing.T) {
	var s Server
	s.Reserve(0, 10)
	s.Reserve(0, 10)
	s.Reserve(0, 10)
	if s.Jobs != 3 {
		t.Fatalf("Jobs = %d, want 3", s.Jobs)
	}
	if s.Busy != 30 {
		t.Fatalf("Busy = %d, want 30", s.Busy)
	}
	if s.Waited != 10+20 {
		t.Fatalf("Waited = %d, want 30", s.Waited)
	}
	s.Reset()
	if s.Jobs != 0 || s.Busy != 0 || s.FreeAt() != 0 {
		t.Fatal("Reset did not clear server")
	}
}

// Property: service start times are monotone in reservation order and never
// precede arrival; busy time equals the sum of durations.
func TestServerPropertyMonotone(t *testing.T) {
	f := func(arrivals []uint16, durs []uint8) bool {
		var s Server
		var prevStart Cycle
		var sum Cycle
		now := Cycle(0)
		for i, a := range arrivals {
			now += Cycle(a % 100)
			d := Cycle(1)
			if i < len(durs) {
				d = Cycle(durs[i]%20) + 1
			}
			start := s.Reserve(now, d)
			if start < now || start < prevStart {
				return false
			}
			prevStart = start
			sum += d
		}
		return s.Busy == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine fires events in nondecreasing cycle order regardless
// of scheduling order.
func TestEnginePropertyOrdered(t *testing.T) {
	f := func(cycles []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		for _, c := range cycles {
			c := Cycle(c)
			e.At(c, func() { fired = append(fired, c) })
		}
		e.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(cycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) over 10k draws hit %d distinct values, want 10", len(seen))
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestCycleSeconds(t *testing.T) {
	if got := Cycle(33_000_000).Seconds(); got != 1.0 {
		t.Fatalf("33M cycles = %v seconds, want 1.0", got)
	}
}
