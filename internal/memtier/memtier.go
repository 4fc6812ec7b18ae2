package memtier

import (
	"errors"
	"fmt"

	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/sim"
)

// Kind selects the memory-system model behind the directory.
type Kind int

const (
	// KindFlat is the paper's per-node DRAM at a fixed latency. A flat
	// configuration builds no model at all.
	KindFlat Kind = iota
	// KindDisaggregated places home memory across a second interconnect
	// tier with hop latency, a serialization bandwidth cap, and queueing.
	KindDisaggregated
	// KindTiered is hybrid DRAM/NVM with asymmetric read/write latencies
	// and deterministic hot-block promotion into a bounded DRAM set.
	KindTiered

	numKinds
)

// String names the kind as it appears in reports and sweep cache keys.
func (k Kind) String() string {
	switch k {
	case KindFlat:
		return "flat"
	case KindDisaggregated:
		return "disaggregated"
	case KindTiered:
		return "tiered"
	case numKinds:
		panic("memtier: numKinds is not a kind")
	default:
		panic(fmt.Sprintf("memtier: unknown kind %d", int(k)))
	}
}

// Named validation errors. Config.Validate wraps these with detail, so
// callers can match them with errors.Is while still seeing which field
// was wrong.
var (
	// ErrKind flags an out-of-range Kind.
	ErrKind = errors.New("memtier: unknown memory-system kind")
	// ErrTierLatency flags a zero latency parameter (sim.Cycle is
	// unsigned, so negatives are unrepresentable): a tier with free
	// accesses silently simulates nonsense.
	ErrTierLatency = errors.New("memtier: tier latency must be positive")
	// ErrTierSize flags a non-positive size parameter (flits, DRAM
	// capacity).
	ErrTierSize = errors.New("memtier: tier size must be positive")
	// ErrPromotion flags a non-positive promotion threshold.
	ErrPromotion = errors.New("memtier: promotion threshold must be positive")
)

// Config describes one memory-system scenario. The zero value is the flat
// paper machine. Only the fields of the selected Kind are read.
type Config struct {
	// Kind selects the model.
	Kind Kind

	// Far is the second-tier link timing (KindDisaggregated).
	Far mesh.TierConfig

	// DRAMRead and DRAMWrite are the near-tier access times
	// (KindTiered).
	DRAMRead, DRAMWrite sim.Cycle
	// NVMRead and NVMWrite are the far-tier access times (KindTiered).
	// NVM writes are the expensive direction on real devices.
	NVMRead, NVMWrite sim.Cycle
	// DRAMBlocks bounds each home's DRAM set in blocks (KindTiered).
	DRAMBlocks int
	// PromoteAfter is the touch count at which a block is promoted into
	// DRAM (KindTiered). Promotion is cycle-driven and deterministic: the
	// threshold touch itself still pays the NVM latency, later touches
	// hit DRAM.
	PromoteAfter int
}

// DefaultDisaggregated returns the disaggregated-memory scenario used by
// the exhibits: four switch hops at eight cycles each, an eight-flit
// block transfer at two cycles per flit, and a forty-cycle far device —
// a ~120-cycle uncontended fetch against the flat machine's eight.
func DefaultDisaggregated() Config {
	return Config{
		Kind: KindDisaggregated,
		Far: mesh.TierConfig{
			Hops:       4,
			HopCycles:  8,
			FlitCycles: 2,
			Flits:      8,
			MemCycles:  40,
		},
	}
}

// DefaultTiered returns the hybrid DRAM/NVM scenario used by the
// exhibits: DRAM at the flat machine's latency, NVM at 6x for reads and
// 20x for writes (device asymmetry plus controller queueing), a 64-block
// DRAM set per home, and promotion on the eighth touch — late enough
// that cold and lightly-shared blocks pay the NVM price for a meaningful
// fraction of their accesses.
func DefaultTiered() Config {
	return Config{
		Kind:         KindTiered,
		DRAMRead:     8,
		DRAMWrite:    8,
		NVMRead:      48,
		NVMWrite:     160,
		DRAMBlocks:   64,
		PromoteAfter: 8,
	}
}

// Validate reports configuration errors with named, matchable causes. A
// flat configuration is always valid. Model construction does not
// validate (the model checker deliberately runs zero-latency tiers to
// freeze simulated time); machine.Config.Validate is the gate real
// machines pass through.
func (c Config) Validate() error {
	switch c.Kind {
	case KindFlat:
		return nil
	case KindDisaggregated:
		if c.Far.HopCycles == 0 || c.Far.FlitCycles == 0 || c.Far.MemCycles == 0 {
			return fmt.Errorf("%w: disaggregated tier needs positive hop (%d), flit (%d), and memory (%d) cycles",
				ErrTierLatency, c.Far.HopCycles, c.Far.FlitCycles, c.Far.MemCycles)
		}
		if c.Far.Hops <= 0 || c.Far.Flits <= 0 {
			return fmt.Errorf("%w: disaggregated tier needs positive hops (%d) and flits (%d)",
				ErrTierSize, c.Far.Hops, c.Far.Flits)
		}
		return nil
	case KindTiered:
		if c.DRAMRead == 0 || c.DRAMWrite == 0 || c.NVMRead == 0 || c.NVMWrite == 0 {
			return fmt.Errorf("%w: tiered memory needs positive DRAM (%d/%d) and NVM (%d/%d) read/write cycles",
				ErrTierLatency, c.DRAMRead, c.DRAMWrite, c.NVMRead, c.NVMWrite)
		}
		if c.DRAMBlocks <= 0 {
			return fmt.Errorf("%w: tiered memory needs a positive DRAM capacity (%d blocks)",
				ErrTierSize, c.DRAMBlocks)
		}
		if c.PromoteAfter <= 0 {
			return fmt.Errorf("%w: got %d", ErrPromotion, c.PromoteAfter)
		}
		return nil
	case numKinds:
	}
	return fmt.Errorf("%w: %d", ErrKind, int(c.Kind))
}

// Stats aggregates the model's machine-wide accounting.
type Stats struct {
	// Accesses counts directory-side memory accesses through the model.
	Accesses uint64
	// FarQueued accumulates cycles accesses spent queued for a tier link
	// or memory channel.
	FarQueued sim.Cycle
	// DRAMHits and NVMAccesses split tiered accesses by the tier that
	// served them.
	DRAMHits, NVMAccesses uint64
	// Promotions and Demotions count DRAM-set membership changes.
	Promotions, Demotions uint64
}

// homeTier is one home node's tiered-placement state.
type homeTier struct {
	touches map[mem.Block]int
	dram    map[mem.Block]bool
	// order lists the DRAM set in promotion order; capacity evictions
	// take the head (FIFO), which keeps the policy deterministic without
	// any clock or randomness.
	order []mem.Block
}

// Model is the memory hierarchy of one machine: one tier link or memory
// channel per home node, consulted by the protocol fabric for every
// directory-side block access. A nil *Model means KindFlat.
type Model struct {
	cfg    Config
	engine *sim.Engine
	far    []mesh.TierLink // KindDisaggregated: per-home far link
	ch     []sim.Server    // KindTiered: per-home memory channel
	tiers  []homeTier      // KindTiered: per-home placement
	stats  Stats           // machine-wide accounting
}

// New builds a model for a machine of n nodes. A KindFlat configuration
// returns nil — the fabric's "no model" representation. New does not
// validate timing (see Config.Validate): the model checker runs tiers at
// zero latency on purpose.
func New(engine *sim.Engine, n int, cfg Config) *Model {
	if cfg.Kind == KindFlat {
		return nil
	}
	m := &Model{cfg: cfg, engine: engine}
	switch cfg.Kind {
	case KindDisaggregated:
		m.far = make([]mesh.TierLink, n)
		for i := range m.far {
			m.far[i] = mesh.NewTierLink(cfg.Far)
		}
	case KindTiered:
		m.ch = make([]sim.Server, n)
		m.tiers = make([]homeTier, n)
		for i := range m.tiers {
			m.tiers[i] = homeTier{
				touches: make(map[mem.Block]int),
				dram:    make(map[mem.Block]bool),
			}
		}
	case KindFlat, numKinds:
		panic("memtier: unreachable kind")
	default:
		panic(fmt.Sprintf("memtier: unknown kind %d", int(cfg.Kind)))
	}
	return m
}

// Kind reports the model's configured kind.
func (m *Model) Kind() Kind { return m.cfg.Kind }

// Stats reports the model's machine-wide accounting.
func (m *Model) Stats() Stats { return m.stats }

// Access charges one directory-side memory access to block b at home and
// returns its total latency (queueing included), which the caller folds
// into the protocol event that needed the data. The access also occupies
// the home's tier link or memory channel, so concurrent accesses queue:
// a fire-and-forget write (a writeback landing in memory) delays the
// reads behind it even though nothing waits on the write itself.
func (m *Model) Access(home mem.NodeID, b mem.Block, write bool) sim.Cycle {
	m.stats.Accesses++
	now := m.engine.Now()
	switch m.cfg.Kind {
	case KindDisaggregated:
		queue, transit := m.far[home].Transfer(now)
		m.stats.FarQueued += queue
		return queue + transit
	case KindTiered:
		return m.tieredAccess(home, b, write, now)
	case KindFlat, numKinds:
		panic("memtier: unreachable kind")
	default:
		panic(fmt.Sprintf("memtier: unknown kind %d", int(m.cfg.Kind)))
	}
}

// tieredAccess serves one access from the block's current tier, counts
// the touch, and promotes the block when it crosses the threshold.
func (m *Model) tieredAccess(home mem.NodeID, b mem.Block, write bool, now sim.Cycle) sim.Cycle {
	t := &m.tiers[home]
	st := &m.stats
	var lat sim.Cycle
	if t.dram[b] {
		st.DRAMHits++
		if write {
			lat = m.cfg.DRAMWrite
		} else {
			lat = m.cfg.DRAMRead
		}
	} else {
		st.NVMAccesses++
		if write {
			lat = m.cfg.NVMWrite
		} else {
			lat = m.cfg.NVMRead
		}
		t.touches[b]++
		if t.touches[b] >= m.cfg.PromoteAfter {
			m.promote(t, st, b)
		}
	}
	start := m.ch[home].Reserve(now, lat)
	queue := start - now
	st.FarQueued += queue
	return queue + lat
}

// promote moves b into the home's DRAM set, evicting the oldest resident
// (promotion order) when the set is full. The evicted block restarts its
// touch count: it must re-earn promotion.
func (m *Model) promote(t *homeTier, st *Stats, b mem.Block) {
	if len(t.order) >= m.cfg.DRAMBlocks {
		victim := t.order[0]
		copy(t.order, t.order[1:])
		t.order = t.order[:len(t.order)-1]
		delete(t.dram, victim)
		t.touches[victim] = 0
		st.Demotions++
	}
	t.dram[b] = true
	t.order = append(t.order, b)
	delete(t.touches, b)
	st.Promotions++
}

// InDRAM reports whether block b currently sits in its home's DRAM set
// (KindTiered only; false otherwise). Testing and statistics.
func (m *Model) InDRAM(b mem.Block) bool {
	if m.cfg.Kind != KindTiered {
		return false
	}
	return m.tiers[mem.HomeOfBlock(b)].dram[b]
}

// LinkQueued reports the cycles transfers spent waiting on home's tier
// link (KindDisaggregated only; zero otherwise). Testing and statistics.
func (m *Model) LinkQueued(home mem.NodeID) sim.Cycle {
	if m.cfg.Kind != KindDisaggregated {
		return 0
	}
	return m.far[home].Queued
}
