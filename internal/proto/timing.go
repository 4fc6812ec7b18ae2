package proto

import "swex/internal/sim"

// Timing collects the fixed hardware latencies of the node. The defaults
// are chosen so that an uncontended two-party remote read costs on the
// order of 40 cycles, in line with Alewife's reported clean remote-miss
// latency; the experiments depend on the ratios between these numbers and
// the software handler costs, not on their absolute values.
type Timing struct {
	// MemLatency is the DRAM access time for a block at its home (and
	// for local instruction fills).
	MemLatency sim.Cycle
	// HomeProc is the CMMU hardware processing time per protocol message
	// at the home.
	HomeProc sim.Cycle
	// CacheFill is the time to install an arrived block into the cache;
	// it is charged as part of the data reply's latency (the fill and
	// the retirement of the waiting access are atomic at delivery).
	CacheFill sim.Cycle
	// RetryDelay is how long a requester waits after a BUSY before
	// retrying.
	RetryDelay sim.Cycle
	// ReqFlits, DataFlits, CtlFlits size the message classes in network
	// flits: requests, data-carrying messages, and small control
	// messages (INV/ACK/BUSY).
	ReqFlits, DataFlits, CtlFlits int
}

// DefaultTiming returns the timing used across all experiments.
func DefaultTiming() Timing {
	return Timing{
		MemLatency: 8,
		HomeProc:   4,
		CacheFill:  2,
		RetryDelay: 12,
		ReqFlits:   2,
		DataFlits:  6,
		CtlFlits:   2,
	}
}

// Flits returns the size of a message kind in flits.
func (t Timing) Flits(k MsgKind) int {
	switch {
	case k.CarriesData():
		return t.DataFlits
	case k == MsgRREQ || k == MsgWREQ:
		return t.ReqFlits
	default:
		return t.CtlFlits
	}
}
