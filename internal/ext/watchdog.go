package ext

import (
	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
)

// WatchdogTraps is the trap scheduler of the flexible coherence interface:
// it arbitrates each node's processor between protocol handlers and user
// computation, and implements the framework's livelock watchdog (paper
// Section 4.1).
//
// Handlers are traps: they preempt user code, so they run back to back on
// their own timeline and never wait for user computation. User compute is
// the preempted party: it is pushed past any handler occupancy that
// overlaps it. When software-extension requests arrive so frequently that
// user code cannot make forward progress — a handler backlog beyond
// Threshold — the watchdog "temporarily shuts off asynchronous events and
// allows the user code to run unmolested": the next handler start is
// deferred by Grace cycles, and user computation is free to fill that
// window. In practice this engages only for the protocols that field
// acknowledgments in software (Dir_nH_0S_NB,ACK and Dir_nH_1S_NB,ACK),
// exactly as the paper reports.
type WatchdogTraps struct {
	engine *sim.Engine
	nodes  []procState
	// Threshold is the handler backlog (in cycles) that triggers the
	// watchdog; Grace is the user-time window it grants.
	Threshold sim.Cycle
	Grace     sim.Cycle
	// Activations counts watchdog interventions per node.
	Activations []uint64
}

type interval struct{ start, end sim.Cycle }

type procState struct {
	handlerFree sim.Cycle // end of the handler chain
	userFree    sim.Cycle // end of the last user reservation
	hold        sim.Cycle // floor for the next handler start
	intervals   []interval
	handlerBusy sim.Cycle
	userBusy    sim.Cycle
}

var _ proto.TrapScheduler = (*WatchdogTraps)(nil)

// NewWatchdogTraps builds the scheduler for n nodes.
func NewWatchdogTraps(engine *sim.Engine, n int) *WatchdogTraps {
	return &WatchdogTraps{
		engine:      engine,
		nodes:       make([]procState, n),
		Threshold:   2000,
		Grace:       500,
		Activations: make([]uint64, n),
	}
}

// Schedule implements proto.TrapScheduler for handlers.
func (w *WatchdogTraps) Schedule(node mem.NodeID, cost sim.Cycle) sim.Cycle {
	now := w.engine.Now()
	p := &w.nodes[node]
	if backlog := p.handlerFree; backlog > now && backlog-now > w.Threshold && p.hold <= backlog {
		// Livelock suspected: no handler may start until Grace cycles
		// after the current backlog drains; user code owns the window.
		w.Activations[node]++
		p.hold = backlog + w.Grace
	}
	start := now
	if p.handlerFree > start {
		start = p.handlerFree
	}
	if p.hold > start {
		start = p.hold
	}
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

// Reserve implements proto.TrapScheduler for user computation: it starts
// as early as possible but is pushed past every handler window it would
// overlap (traps preempt user code).
func (w *WatchdogTraps) Reserve(node mem.NodeID, cost sim.Cycle) sim.Cycle {
	now := w.engine.Now()
	p := &w.nodes[node]
	start := now
	if p.userFree > start {
		start = p.userFree
	}
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
	p.userBusy += cost
	return start + cost
}

// FreeAt implements proto.TrapScheduler: the end of the handler backlog.
func (w *WatchdogTraps) FreeAt(node mem.NodeID) sim.Cycle {
	return w.nodes[node].handlerFree
}

// HandlerBusy reports cycles node's processor spent in protocol handlers.
func (w *WatchdogTraps) HandlerBusy(node mem.NodeID) sim.Cycle {
	return w.nodes[node].handlerBusy
}

// UserBusy reports cycles node's processor spent in user computation.
func (w *WatchdogTraps) UserBusy(node mem.NodeID) sim.Cycle {
	return w.nodes[node].userBusy
}

// TotalActivations sums watchdog interventions across the machine.
func (w *WatchdogTraps) TotalActivations() uint64 {
	var t uint64
	for _, a := range w.Activations {
		t += a
	}
	return t
}

// TotalHandlerBusy sums handler cycles across the machine.
func (w *WatchdogTraps) TotalHandlerBusy() sim.Cycle {
	var t sim.Cycle
	for i := range w.nodes {
		t += w.nodes[i].handlerBusy
	}
	return t
}
