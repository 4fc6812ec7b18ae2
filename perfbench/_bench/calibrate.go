package main

import (
	"container/heap"
	"time"
)

// Host-speed calibration. On a shared host the same pass runs up to 1.7×
// slower in spells lasting seconds (frequency scaling and neighbours),
// which moves a 15-second median by 20-40% from one process to the next.
// A fixed loop that uses only the standard library slows by the same
// factor, so every pass is followed by that loop and its timings are
// scaled by calReference over the loop's time. Reported times therefore
// read as host seconds on a host that runs the loop in calReference; the
// simulator's code never runs inside the loop, so a change to it moves the
// scaled times exactly as it moves the unscaled ones.

// calReference is about the calibration loop's time on an unloaded 2-core
// Xeon host. Any fixed value would do: both sides of a comparison are
// scaled by it alike.
const calReference = 0.040

// calHeap is the calibration loop's priority queue.
type calHeap []uint64

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

var calSink uint64

// hostScale times the calibration loop, a priority queue and a map under
// a pseudo-random key stream (the two structures the simulator leans on),
// and returns calReference over its time.
func hostScale() float64 {
	h := make(calHeap, 0, 1024)
	m := make(map[uint64]uint64, 4096)
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&h, x&0xfffff)
		m[x&4095] += x
		if h.Len() > 512 {
			calSink += heap.Pop(&h).(uint64) + m[(x>>12)&4095]
		}
	}
	return calReference / time.Since(t0).Seconds()
}
