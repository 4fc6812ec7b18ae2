package proto

import (
	"fmt"

	"swex/internal/sim"
)

// Tracer receives protocol events as they happen: the simulator's
// "non-intrusive observation" debugging facility. Tracing never perturbs
// simulated time.
type Tracer interface {
	// Event records one protocol event at the given cycle.
	Event(cycle sim.Cycle, kind string, detail string)
}

// traceMsg hooks message injection; the send path calls it only when a
// tracer is installed, so an untraced send does not copy the message.
func (f *Fabric) traceMsg(m Msg) {
	f.Trace.Event(f.Engine.Now(), "msg", m.String())
}

// traceTrap hooks software handler invocation.
func (f *Fabric) traceTrap(node int, kind string, cost sim.Cycle) {
	if f.Trace != nil {
		f.Trace.Event(f.Engine.Now(), "trap",
			fmt.Sprintf("node=%d %s cost=%d", node, kind, cost))
	}
}
