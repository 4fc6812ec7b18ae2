package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleSummary(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v, want 3", s.Median())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %v, want 15", s.Sum())
	}
}

func TestSampleMedianEven(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Median() != 2.5 {
		t.Fatalf("Median of 1..4 = %v, want 2.5", s.Median())
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Reset()
	if s.N() != 0 || s.Sum() != 0 {
		t.Fatal("Reset did not clear sample")
	}
}

func TestSampleValuesIsCopy(t *testing.T) {
	var s Sample
	s.Add(1)
	v := s.Values()
	v[0] = 99
	if s.Values()[0] != 1 {
		t.Fatal("Values returned a view into internal storage")
	}
}

// Property: Min <= Median <= Max and Mean lies within [Min, Max].
func TestSamplePropertyBounds(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			s.Add(float64(v))
		}
		return s.Min() <= s.Median() && s.Median() <= s.Max() &&
			s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHist(t *testing.T) {
	h := NewHist()
	h.Add(1)
	h.Add(1)
	h.AddN(64, 5)
	if h.Count(1) != 2 {
		t.Fatalf("Count(1) = %d, want 2", h.Count(1))
	}
	if h.Count(64) != 5 {
		t.Fatalf("Count(64) = %d, want 5", h.Count(64))
	}
	if h.Count(3) != 0 {
		t.Fatalf("Count(3) = %d, want 0", h.Count(3))
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
	if h.MaxBucket() != 64 {
		t.Fatalf("MaxBucket = %d, want 64", h.MaxBucket())
	}
	b := h.Buckets()
	if len(b) != 2 || b[0] != 1 || b[1] != 64 {
		t.Fatalf("Buckets = %v, want [1 64]", b)
	}
	if !strings.Contains(h.String(), "64: 5") {
		t.Fatalf("String() missing bucket line:\n%s", h.String())
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc(Register("traps"))
	c.Inc(Register("traps"))
	c.Addc(Register("messages"), 10)
	if c.Get("traps") != 2 {
		t.Fatalf("traps = %d, want 2", c.Get("traps"))
	}
	if c.Get("messages") != 10 {
		t.Fatalf("messages = %d, want 10", c.Get("messages"))
	}
	if c.Get("absent") != 0 {
		t.Fatal("absent counter should read 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "messages" || names[1] != "traps" {
		t.Fatalf("Names = %v, want sorted [messages traps]", names)
	}
	if !strings.Contains(c.String(), "traps") {
		t.Fatal("String() missing counter")
	}
}

func TestActivityNames(t *testing.T) {
	if ActTrapDispatch.String() != "trap dispatch" {
		t.Fatalf("ActTrapDispatch = %q", ActTrapDispatch.String())
	}
	if ActInvalidate.String() != "invalidation lookup and transmit" {
		t.Fatalf("ActInvalidate = %q", ActInvalidate.String())
	}
	if Activity(99).String() != "activity(99)" {
		t.Fatalf("out-of-range activity = %q", Activity(99).String())
	}
	for a := Activity(0); a < NumActivities; a++ {
		if a.String() == "" {
			t.Fatalf("activity %d has empty name", a)
		}
	}
}

func TestBreakdownTotalAndAdd(t *testing.T) {
	var b Breakdown
	b[ActTrapDispatch] = 11
	b[ActTrapReturn] = 14
	if b.Total() != 25 {
		t.Fatalf("Total = %d, want 25", b.Total())
	}
	var c Breakdown
	c[ActTrapDispatch] = 1
	b.Add(&c)
	if b[ActTrapDispatch] != 12 {
		t.Fatalf("Add: got %d, want 12", b[ActTrapDispatch])
	}
}

func TestLedgerMeanBySharers(t *testing.T) {
	var l Ledger
	l.Record(HandlerRecord{Kind: ReadRequest, Cycles: 400, Sharers: 8})
	l.Record(HandlerRecord{Kind: ReadRequest, Cycles: 440, Sharers: 8})
	l.Record(HandlerRecord{Kind: ReadRequest, Cycles: 300, Sharers: 12})
	l.Record(HandlerRecord{Kind: WriteRequest, Cycles: 700, Sharers: 8})
	if got := l.Mean(ReadRequest, 8); got != 420 {
		t.Fatalf("Mean(read,8) = %v, want 420", got)
	}
	if got := l.Mean(ReadRequest, -1); got != 380 {
		t.Fatalf("Mean(read,any) = %v, want 380", got)
	}
	if got := l.Mean(WriteRequest, 8); got != 700 {
		t.Fatalf("Mean(write,8) = %v, want 700", got)
	}
	if got := l.Mean(AckRequest, -1); got != 0 {
		t.Fatalf("Mean(ack) = %v, want 0", got)
	}
}

func TestLedgerMedian(t *testing.T) {
	var l Ledger
	for _, c := range []uint64{100, 500, 300} {
		l.Record(HandlerRecord{Kind: WriteRequest, Cycles: c, Sharers: 8})
	}
	r, ok := l.Median(WriteRequest, 8)
	if !ok {
		t.Fatal("Median found no records")
	}
	if r.Cycles != 300 {
		t.Fatalf("median cycles = %d, want 300", r.Cycles)
	}
	if _, ok := l.Median(ReadRequest, -1); ok {
		t.Fatal("Median reported success with no matching records")
	}
}

func TestLedgerCountAndReset(t *testing.T) {
	var l Ledger
	l.Record(HandlerRecord{Kind: ReadRequest})
	l.Record(HandlerRecord{Kind: ReadRequest})
	l.Record(HandlerRecord{Kind: AckRequest})
	if l.Count(ReadRequest) != 2 || l.Count(AckRequest) != 1 || l.N() != 3 {
		t.Fatal("Count/N mismatch")
	}
	l.Reset()
	if l.N() != 0 {
		t.Fatal("Reset did not clear ledger")
	}
}

func TestRequestKindString(t *testing.T) {
	cases := map[RequestKind]string{
		ReadRequest:  "read",
		WriteRequest: "write",
		AckRequest:   "ack",
		LocalRequest: "local",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestFormatBreakdown(t *testing.T) {
	var read, write Breakdown
	read[ActTrapDispatch] = 11
	write[ActInvalidate] = 419
	out := FormatBreakdown(&read, &write)
	if !strings.Contains(out, "trap dispatch") {
		t.Fatal("missing trap dispatch row")
	}
	if !strings.Contains(out, "N/A") {
		t.Fatal("zero cells should render N/A, matching the paper's table")
	}
	if !strings.Contains(out, "total (median latency)") {
		t.Fatal("missing total row")
	}
}

func TestHistMarshalJSON(t *testing.T) {
	h := NewHist()
	h.Add(1)
	h.AddN(64, 5)
	out, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"1":1,"64":5}` {
		t.Fatalf("JSON = %s", out)
	}
}

// TestLedgerMatchesPlainRecords runs the interned Ledger against the plain
// record slice it replaced, over a seeded stream with few distinct cycle
// values (so Median has many ties to break) and records that tie on
// cycles but differ in sharers and breakdown. N, Count, Mean, and Median
// must agree, including which of the tied records Median returns.
func TestLedgerMatchesPlainRecords(t *testing.T) {
	matching := func(plain []HandlerRecord, kind RequestKind, sharers int) []HandlerRecord {
		var out []HandlerRecord
		for _, r := range plain {
			if r.Kind == kind && (sharers < 0 || r.Sharers == sharers) {
				out = append(out, r)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(1994))
	var l Ledger
	var plain []HandlerRecord
	for round := 0; round < 2; round++ {
		for i := 0; i < 4000; i++ {
			r := HandlerRecord{
				Kind:    RequestKind(rng.Intn(int(NumRequestKinds))),
				Cycles:  uint64(100 + 25*rng.Intn(5)),
				Sharers: rng.Intn(4),
			}
			r.Breakdown[rng.Intn(int(NumActivities))] = uint64(rng.Intn(3))
			l.Record(r)
			plain = append(plain, r)
		}
		if l.N() != len(plain) {
			t.Fatalf("round %d: N = %d, want %d", round, l.N(), len(plain))
		}
		for kind := RequestKind(0); kind < NumRequestKinds; kind++ {
			if got, want := l.Count(kind), len(matching(plain, kind, -1)); got != want {
				t.Fatalf("round %d: Count(%v) = %d, want %d", round, kind, got, want)
			}
			for sharers := -1; sharers < 5; sharers++ {
				m := matching(plain, kind, sharers)
				var sum uint64
				for _, r := range m {
					sum += r.Cycles
				}
				var mean float64
				if len(m) > 0 {
					mean = float64(sum) / float64(len(m))
				}
				if got := l.Mean(kind, sharers); got != mean {
					t.Fatalf("round %d: Mean(%v, %d) = %v, want %v", round, kind, sharers, got, mean)
				}
				sort.SliceStable(m, func(i, j int) bool { return m[i].Cycles < m[j].Cycles })
				got, ok := l.Median(kind, sharers)
				if ok != (len(m) > 0) {
					t.Fatalf("round %d: Median(%v, %d) ok = %v with %d matching", round, kind, sharers, ok, len(m))
				}
				if ok && got != m[len(m)/2] {
					t.Fatalf("round %d: Median(%v, %d) = %+v, want %+v", round, kind, sharers, got, m[len(m)/2])
				}
			}
		}
		// The second round records into a reset ledger that keeps its
		// interned records.
		l.Reset()
		plain = plain[:0]
	}
}

// TestLedgerRepeatedRecords runs the ledger over streams of repeated
// records, the case Record answers from its last interned record,
// across a Reset that keeps the interned records: every invocation must
// still count, in order.
func TestLedgerRepeatedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var l Ledger
	for round := 0; round < 3; round++ {
		var plain []HandlerRecord
		r := HandlerRecord{Kind: ReadRequest, Cycles: 100}
		for i := 0; i < 2000; i++ {
			if rng.Intn(4) == 0 {
				r = HandlerRecord{
					Kind:    RequestKind(rng.Intn(int(NumRequestKinds))),
					Cycles:  uint64(100 + rng.Intn(4)),
					Sharers: rng.Intn(3),
				}
			}
			l.Record(r)
			plain = append(plain, r)
		}
		if l.N() != len(plain) {
			t.Fatalf("round %d: N = %d, want %d", round, l.N(), len(plain))
		}
		for kind := RequestKind(0); kind < NumRequestKinds; kind++ {
			want := 0
			for _, p := range plain {
				if p.Kind == kind {
					want++
				}
			}
			if got := l.Count(kind); got != want {
				t.Fatalf("round %d: Count(%v) = %d, want %d", round, kind, got, want)
			}
		}
		for i, id := range l.ids {
			if l.distinct[id] != plain[i] {
				t.Fatalf("round %d: invocation %d recorded %+v, want %+v", round, i, l.distinct[id], plain[i])
			}
		}
		l.Reset()
	}
}

// refCounters is the map-backed counter set Counters replaced, kept as
// the reference model.
type refCounters map[string]uint64

func (c refCounters) names() []string {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (c refCounters) String() string {
	var b strings.Builder
	for _, k := range c.names() {
		fmt.Fprintf(&b, "%-40s %d\n", k, c[k])
	}
	return b.String()
}

// Property: slot-indexed counters read exactly as the map-backed model
// under random increments, zero additions, resets and names registered
// after the set was created: Get, Names and String agree byte for byte,
// and a counter touched only by Addc(id, 0) is still listed.
func TestPropertyCountersMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounters()
		ref := refCounters{}
		pool := []string{"msg.RREQ", "msg.WREQ", "home.traps", "cache.evictions", "zzz.last", "aaa.first"}
		for i := 0; i < 300; i++ {
			name := pool[rng.Intn(len(pool))]
			if rng.Intn(20) == 0 {
				// A name first registered mid-run, after c has grown.
				name = fmt.Sprintf("late.%d.%d", seed, rng.Intn(5))
				pool = append(pool, name)
			}
			switch op := rng.Intn(10); {
			case op < 5:
				c.Inc(Register(name))
				ref[name]++
			case op < 7:
				n := uint64(rng.Intn(3)) // zero included
				c.Addc(Register(name), n)
				ref[name] += n
			case op < 8 && rng.Intn(4) == 0:
				c.Reset()
				clear(ref)
			default:
				if got, want := c.Get(name), ref[name]; got != want {
					t.Fatalf("seed %d: Get(%q) = %d, want %d", seed, name, got, want)
				}
			}
		}
		if got, want := c.Names(), ref.names(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Names = %v, want %v", seed, got, want)
		}
		if got, want := c.String(), ref.String(); got != want {
			t.Fatalf("seed %d: String =\n%s\nwant\n%s", seed, got, want)
		}
		if c.Get("never.registered") != 0 {
			t.Fatalf("seed %d: an unregistered name reads nonzero", seed)
		}
	}
}

// TestCountersConcurrentRegistry uses the process-wide name registry
// from several goroutines at once, as parallel sweep workers do: each
// registers names (some shared, some its own) and reads its own set.
// Run under -race it checks the registry's locking.
func TestCountersConcurrentRegistry(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCounters()
			for i := 0; i < 200; i++ {
				c.Inc(Register("shared.counter"))
				c.Addc(Register(fmt.Sprintf("own.%d.%d", g, i%7)), 2)
			}
			if got := c.Get("shared.counter"); got != 200 {
				t.Errorf("goroutine %d: shared.counter = %d, want 200", g, got)
			}
			if n := len(c.Names()); n != 8 {
				t.Errorf("goroutine %d: %d names, want 8", g, n)
			}
		}()
	}
	wg.Wait()
}
