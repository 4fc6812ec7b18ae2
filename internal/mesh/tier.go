package mesh

import "swex/internal/sim"

// TierConfig sets the timing of a second interconnect tier: the rack-scale
// fabric (CXL switch, photonic link) that disaggregated memory sits behind.
// It is deliberately simpler than the mesh proper — one shared link per
// home node, dimensionless hops — because what the experiments need is the
// first-order effect: a fixed round-trip penalty plus queueing under a
// bandwidth cap, not a routed topology. Only internal/memtier uses the
// tier, and it is kept only for perfbench's memtier.access_ns.* rows.
type TierConfig struct {
	// Hops is the one-way switch count between the node and its far
	// memory; a transfer pays the hop latency twice (request + response).
	Hops int
	// HopCycles is the per-hop switch/wire latency.
	HopCycles sim.Cycle
	// FlitCycles is the per-flit serialization time on the tier link; the
	// link is occupied for Flits*FlitCycles per transfer, which is the
	// bandwidth cap: concurrent transfers queue behind it.
	FlitCycles sim.Cycle
	// Flits is the transfer size in tier-link flits (a cache block plus
	// header).
	Flits int
	// MemCycles is the far memory device's access time.
	MemCycles sim.Cycle
}

// TierLink is one node's link onto the second interconnect tier. Like the
// mesh's transmit queues it is a FIFO server: transfers reserve the link
// in call order, so concurrent block fetches from the same home queue
// deterministically.
type TierLink struct {
	cfg TierConfig
	srv sim.Server

	// Transfers counts transfers over this link.
	Transfers uint64
	// Queued accumulates cycles transfers spent waiting for the link.
	Queued sim.Cycle
}

// NewTierLink returns a link with the given timing.
func NewTierLink(cfg TierConfig) TierLink { return TierLink{cfg: cfg} }

// Transfer reserves the link for one block transfer starting at now and
// returns the time split: queue is the wait for the link to free, transit
// is the round trip itself (serialization, twice the hop flight, and the
// far memory access). The transfer completes at now+queue+transit.
func (l *TierLink) Transfer(now sim.Cycle) (queue, transit sim.Cycle) {
	ser := sim.Cycle(l.cfg.Flits) * l.cfg.FlitCycles
	start := l.srv.Reserve(now, ser)
	queue = start - now
	transit = ser + 2*sim.Cycle(l.cfg.Hops)*l.cfg.HopCycles + l.cfg.MemCycles
	l.Transfers++
	l.Queued += queue
	return queue, transit
}

// FreeAt reports when the link next falls idle (testing and statistics).
func (l *TierLink) FreeAt() sim.Cycle { return l.srv.FreeAt() }
