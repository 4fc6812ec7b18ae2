// Package stats provides the non-intrusive observation functions of the
// simulator: counters, latency samples, and histograms. These correspond to
// the measurement machinery NWO provided for the paper's experiments —
// software-handler latency tables (Tables 1 and 2), run-time ratios
// (Figure 2), speedups (Figures 3–5), and the worker-set histogram
// (Figure 6). Collection never perturbs simulated time.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Sample accumulates scalar observations and reports summary statistics.
type Sample struct {
	values []float64
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Sum reports the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Median reports the median observation, or 0 for an empty sample.
// The paper uses the median request to build Table 2's cycle breakdown
// ("we choose a median request of each type").
func (s *Sample) Median() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Min reports the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Values returns a copy of the raw observations.
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// Reset discards all observations.
func (s *Sample) Reset() { s.values = s.values[:0]; s.sum = 0 }

// Hist is an integer-bucket histogram, used for worker-set-size
// distributions (Figure 6).
type Hist struct {
	counts map[int]uint64
	total  uint64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make(map[int]uint64)}
}

// Add increments the bucket for value by one.
func (h *Hist) Add(value int) { h.AddN(value, 1) }

// AddN increments the bucket for value by n.
func (h *Hist) AddN(value int, n uint64) {
	h.counts[value] += n
	h.total += n
}

// Count returns the number of observations in the bucket for value.
func (h *Hist) Count(value int) uint64 { return h.counts[value] }

// Total returns the number of observations across all buckets.
func (h *Hist) Total() uint64 { return h.total }

// Buckets returns the occupied bucket values in ascending order.
func (h *Hist) Buckets() []int {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// MaxBucket returns the largest occupied bucket value, or 0 if empty.
func (h *Hist) MaxBucket() int {
	m := 0
	for k := range h.counts {
		if k > m {
			m = k
		}
	}
	return m
}

// String renders the histogram one bucket per line.
func (h *Hist) String() string {
	var b strings.Builder
	for _, k := range h.Buckets() {
		fmt.Fprintf(&b, "%6d: %d\n", k, h.counts[k])
	}
	return b.String()
}

// Counter is a registered counter name's slot: the index every Counters
// set keeps that counter's value at. Hot paths register their names once
// (Register, at package initialization) and count by slot, so counting
// is an index, not a string hash.
type Counter uint32

// registry maps counter names to slots, process-wide. It only grows:
// a name keeps its slot for the life of the process.
var registry struct {
	mu    sync.Mutex
	names []string
	slots map[string]Counter
}

// Register returns name's counter slot, allocating the next free one on
// a name's first registration. It is safe for concurrent use.
func Register(name string) Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if id, ok := registry.slots[name]; ok {
		return id
	}
	if registry.slots == nil {
		registry.slots = make(map[string]Counter)
	}
	id := Counter(len(registry.names))
	registry.names = append(registry.names, name)
	registry.slots[name] = id
	return id
}

// counterSlot is one counter's value and whether it was ever touched:
// Names lists a counter once it is touched, even if only by Addc(id, 0).
type counterSlot struct {
	n       uint64
	touched bool
}

// Counters is a named set of monotonically increasing event counters,
// stored by registered slot.
type Counters struct {
	slots []counterSlot
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// Reset zeroes every counter.
func (c *Counters) Reset() { clear(c.slots) }

// Inc adds one to a counter.
func (c *Counters) Inc(id Counter) { c.Addc(id, 1) }

// Addc adds n to a counter.
func (c *Counters) Addc(id Counter, n uint64) {
	if int(id) >= len(c.slots) {
		c.grow(id)
	}
	s := &c.slots[id]
	s.n += n
	s.touched = true
}

// grow extends the slot array to hold id, and every slot registered so
// far, so growth happens once per set rather than once per new slot.
func (c *Counters) grow(id Counter) {
	registry.mu.Lock()
	n := max(len(registry.names), int(id)+1)
	registry.mu.Unlock()
	c.slots = append(c.slots, make([]counterSlot, n-len(c.slots))...)
}

// Get returns the value of the named counter (0 if never touched).
func (c *Counters) Get(name string) uint64 {
	registry.mu.Lock()
	id, ok := registry.slots[name]
	registry.mu.Unlock()
	if !ok || int(id) >= len(c.slots) {
		return 0
	}
	return c.slots[id].n
}

// Names returns all touched counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0)
	registry.mu.Lock()
	for id, s := range c.slots {
		if s.touched {
			names = append(names, registry.names[id])
		}
	}
	registry.mu.Unlock()
	sort.Strings(names)
	return names
}

// String renders the counters one per line in sorted order.
func (c *Counters) String() string {
	var b strings.Builder
	for _, k := range c.Names() {
		fmt.Fprintf(&b, "%-40s %d\n", k, c.Get(k))
	}
	return b.String()
}

// MarshalJSON renders the histogram as a {"size": count} object with
// string keys in ascending numeric order.
func (h *Hist) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range h.Buckets() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", fmt.Sprintf("%d", k), h.counts[k])
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}
