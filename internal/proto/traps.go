package proto

import (
	"swex/internal/mem"
	"swex/internal/sim"
)

// Traps is the trap scheduler: it arbitrates each node's processor
// between protocol handlers and user computation.
//
// Handlers are traps: they preempt user code, so they run back to back on
// their own chain and never wait for user computation. User compute is the
// preempted party: Reserve pushes each Compute past the handler windows it
// would overlap, so a cycle granted to a handler is a compute cycle the
// application loses. Memory operations are not held back: they issue while
// the node's own handler runs.
type Traps struct {
	engine *sim.Engine
	nodes  []procState
}

type interval struct{ start, end sim.Cycle }

type procState struct {
	handlerFree sim.Cycle  // end of the handler chain
	userFree    sim.Cycle  // end of the last user reservation
	intervals   []interval // handler windows the user timeline has not passed
	handlerBusy sim.Cycle
}

// reset readies the scheduler for n idle nodes on engine, keeping each
// node's interval storage.
func (t *Traps) reset(engine *sim.Engine, n int) {
	t.engine = engine
	t.nodes = grow(t.nodes, n)
	for i := range t.nodes {
		p := &t.nodes[i]
		*p = procState{intervals: p.intervals[:0]}
	}
}

// Schedule books node's processor for a handler costing cost cycles,
// starting when the node's handler chain is free, and returns the cycle
// at which the handler completes.
func (t *Traps) Schedule(node mem.NodeID, cost sim.Cycle) sim.Cycle {
	now := t.engine.Now()
	p := &t.nodes[node]
	start := max(now, p.handlerFree)
	p.handlerFree = start + cost
	p.handlerBusy += cost
	p.pushInterval(interval{start, start + cost}, now)
	return start + cost
}

// pushInterval records a handler occupancy window, pruning history the
// user timeline has already passed.
func (p *procState) pushInterval(iv interval, now sim.Cycle) {
	live := p.intervals[:0]
	for _, old := range p.intervals {
		if old.end > now && old.end > p.userFree {
			live = append(live, old)
		}
	}
	p.intervals = append(live, iv)
}

// Reserve books node's processor for user computation costing cost
// cycles and returns the cycle at which it completes: it starts as early
// as possible but is pushed past every handler window it would overlap.
func (t *Traps) Reserve(node mem.NodeID, cost sim.Cycle) sim.Cycle {
	p := &t.nodes[node]
	start := max(t.engine.Now(), p.userFree)
	for moved := true; moved; {
		moved = false
		for _, iv := range p.intervals {
			if start < iv.end && start+cost > iv.start {
				start = iv.end
				moved = true
			}
		}
	}
	p.userFree = start + cost
	return start + cost
}

// HandlerBusy reports cycles node's processor spent in protocol handlers.
func (t *Traps) HandlerBusy(node mem.NodeID) sim.Cycle {
	return t.nodes[node].handlerBusy
}

// cloneInto copies the per-node schedules into dst on engine, with fresh
// statistics, reusing dst's storage.
func (t *Traps) cloneInto(dst *Traps, engine *sim.Engine) {
	if len(dst.nodes) != len(t.nodes) {
		dst.nodes = make([]procState, len(t.nodes))
	}
	dst.engine = engine
	for i, p := range t.nodes {
		d := &dst.nodes[i]
		d.handlerFree, d.userFree, d.handlerBusy = p.handlerFree, p.userFree, 0
		d.intervals = append(d.intervals[:0], p.intervals...)
	}
}
