// Package mesh models the Alewife interconnect: a two-dimensional mesh with
// dimension-ordered (X-then-Y) routing. Matching NWO's stated fidelity
// (paper Section 3.2), contention is modeled at each node's CMMU network
// transmit and receive queues but not inside the network switches: a
// message waits for its source transmit queue, flows through the mesh at a
// fixed per-hop latency, and then waits for its destination receive queue.
package mesh

import (
	"fmt"

	"swex/internal/sim"
)

// Config sets the network timing parameters.
type Config struct {
	// Width and Height give the mesh dimensions; Width*Height nodes.
	Width, Height int
	// HopCycles is the switch/wire latency per mesh hop.
	HopCycles sim.Cycle
	// FlitCycles is the per-flit serialization time at the transmit and
	// receive queues (one flit per FlitCycles once the channel is free).
	// Zero means serialization is free: messages still deliver in send
	// order, but occupy no cycles. The model checker runs the whole
	// machine at zero latency so that logically identical states are
	// reached at identical (frozen) simulated times.
	FlitCycles sim.Cycle
	// LocalCycles is the loopback latency for a node messaging itself
	// (the CMMU turns the message around without entering the mesh).
	LocalCycles sim.Cycle
}

// DefaultConfig returns the timing used throughout the experiments: a
// square mesh sized for n nodes with single-cycle flits and two-cycle hops.
func DefaultConfig(n int) Config {
	w, h := Dimensions(n)
	return Config{
		Width:       w,
		Height:      h,
		HopCycles:   2,
		FlitCycles:  1,
		LocalCycles: 2,
	}
}

// ZeroLatency returns a configuration for n nodes in which every network
// latency is zero: messages claim their queue slots (so per-destination
// delivery order still follows send order) but cost no cycles. The model
// checker (internal/mc) uses it to freeze simulated time at cycle zero,
// making machine states comparable across different interleaving
// histories.
func ZeroLatency(n int) Config {
	w, h := Dimensions(n)
	return Config{Width: w, Height: h}
}

// Dimensions chooses a near-square WxH factorization for n nodes,
// preferring powers of two (Alewife machines were 2^k meshes).
func Dimensions(n int) (w, h int) {
	if n <= 0 {
		return 1, 1
	}
	// Largest w <= sqrt(n) dividing n.
	w = 1
	for c := 1; c*c <= n; c++ {
		if n%c == 0 {
			w = c
		}
	}
	return w, n / w
}

// MsgObserver receives the complete computed timing of every message at
// send time. The five cycle points decompose the message's latency:
//
//	sent     .. txStart  transmit-queue wait
//	txStart  .. injected source-side extra (DRAM) plus serialization
//	injected .. arrival  switch-to-switch flight
//	arrival  .. rxStart  receive-queue wait
//	rxStart  .. done     receive-side serialization
//
// For a self-send arrival and rxStart equal injected and done is the
// loopback delivery cycle. The tag is the caller's SendTagged tag.
// Observers must not send messages or schedule events.
type MsgObserver interface {
	MessageTimed(src, dst, size int, extra, sent, txStart, injected, arrival, rxStart, done sim.Cycle, tag any)
}

// Network is the mesh interconnect shared by all nodes of a machine.
type Network struct {
	cfg    Config
	engine *sim.Engine
	tx     []sim.Server // per-node transmit queue
	rx     []sim.Server // per-node receive queue

	// Obs, when non-nil, observes every message's computed timing. Nil
	// (the default) costs one branch per Send.
	Obs MsgObserver

	// Messages counts all messages sent; Flits counts total flits.
	Messages uint64
	Flits    uint64
	// HopTotal accumulates hop counts for mean-distance statistics.
	HopTotal uint64
}

// New creates a network over the given engine. It panics if the
// configuration is degenerate, since a machine without a network is a
// construction error rather than a runtime condition.
func New(engine *sim.Engine, cfg Config) *Network {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("mesh: bad dimensions %dx%d", cfg.Width, cfg.Height))
	}
	n := cfg.Width * cfg.Height
	return &Network{
		cfg:    cfg,
		engine: engine,
		tx:     make([]sim.Server, n),
		rx:     make([]sim.Server, n),
	}
}

// Nodes reports the number of nodes the network connects.
func (n *Network) Nodes() int { return n.cfg.Width * n.cfg.Height }

// Coord maps a node id to its (x, y) mesh coordinate.
func (n *Network) Coord(id int) (x, y int) {
	return id % n.cfg.Width, id / n.cfg.Width
}

// Hops returns the dimension-ordered routing distance between two nodes.
func (n *Network) Hops(src, dst int) int {
	sx, sy := n.Coord(src)
	dx, dy := n.Coord(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Send injects a message of size flits from src to dst and schedules
// deliver to run at the cycle the destination CMMU has fully received it.
// The returned cycle is the delivery time. extra adds source-side latency
// before injection (e.g. the DRAM access feeding a data reply) without
// giving up the message's place in the queues.
//
// The latency model is:
//
//	inject  = wait for src transmit queue, then extra + size*FlitCycles
//	flight  = hops * HopCycles
//	receive = wait for dst receive queue, then size*FlitCycles
//
// A self-send bypasses the mesh and costs LocalCycles after the transmit
// queue drains.
//
// Ordering guarantee: because both queues are reserved at call time in
// call order, deliveries to a given destination occur in global Send-call
// order. The coherence protocol depends on this: a data reply sent before
// an invalidation of the same block must arrive first (both are sent by
// the same home node, so their delivery events also share a key-counter
// stream and keep their send order even on a cycle tie). The delivery
// event is keyed by the sender (sim.Engine.OwnedAtCall).
//
//swex:hotpath
func (n *Network) Send(src, dst, size int, extra sim.Cycle, deliver func()) sim.Cycle {
	return n.SendTagged(src, dst, size, extra, nil, deliver)
}

// SendTagged is Send with an inspection tag attached to the delivery
// event (see sim.Engine.AtTagged). The protocol fabric tags deliveries
// with the in-flight message so the model checker can enumerate what is
// on the wire.
//
//swex:hotpath
func (n *Network) SendTagged(src, dst, size int, extra sim.Cycle, tag any, deliver func()) sim.Cycle {
	done := n.reserve(src, dst, size, extra, tag)
	n.engine.OwnedAt(src, done, tag, deliver)
	return done
}

// SendCall is SendTagged with a preallocated delivery receiver instead of
// a closure (see sim.Engine.AtCall): the fabric's pooled in-flight
// message entries deliver themselves, so the per-message send path
// allocates nothing.
//
//swex:hotpath
func (n *Network) SendCall(src, dst, size int, extra sim.Cycle, tag any, deliver sim.Caller) sim.Cycle {
	done := n.reserve(src, dst, size, extra, tag)
	n.engine.OwnedAtCall(src, done, tag, deliver)
	return done
}

// reserve claims the transmit and receive queue slots for one message and
// returns its delivery cycle, charging all accounting.
func (n *Network) reserve(src, dst, size int, extra sim.Cycle, tag any) sim.Cycle {
	now := n.engine.Now()
	if size < 1 {
		size = 1
	}
	n.Messages++
	n.Flits += uint64(size)

	ser := sim.Cycle(size) * n.cfg.FlitCycles
	txStart := n.tx[src].Reserve(now, extra+ser)
	injected := txStart + extra + ser

	if src == dst {
		at := injected + n.cfg.LocalCycles
		if n.Obs != nil {
			n.Obs.MessageTimed(src, dst, size, extra, now, txStart, injected, injected, injected, at, tag)
		}
		return at
	}

	hops := n.Hops(src, dst)
	n.HopTotal += uint64(hops)
	arrival := injected + sim.Cycle(hops)*n.cfg.HopCycles

	// The receive queue cannot start before the head flit arrives; model
	// the reservation from the arrival time. Reserving the future is
	// sound because the Server orders by reservation call order, and the
	// engine fires events deterministically.
	rxStart := n.rx[dst].Reserve(arrival, ser)
	done := rxStart + ser
	if n.Obs != nil {
		n.Obs.MessageTimed(src, dst, size, extra, now, txStart, injected, arrival, rxStart, done, tag)
	}
	return done
}

// TxUtilization returns the fraction of elapsed cycles node id's transmit
// queue was busy. Useful for hot-spot analysis.
func (n *Network) TxUtilization(id int) float64 {
	now := n.engine.Now()
	if now == 0 {
		return 0
	}
	return float64(n.tx[id].Busy) / float64(now)
}

// RxWaited returns the total cycles messages spent waiting in node id's
// receive queue.
func (n *Network) RxWaited(id int) sim.Cycle { return n.rx[id].Waited }

// MeanHops returns the average hop count over all non-local messages.
func (n *Network) MeanHops() float64 {
	if n.Messages == 0 {
		return 0
	}
	return float64(n.HopTotal) / float64(n.Messages)
}
