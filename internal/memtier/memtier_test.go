package memtier

import (
	"errors"
	"testing"

	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/sim"
)

func TestValidate(t *testing.T) {
	broken := func(mut func(*Config)) Config {
		cfg := DefaultDisaggregated()
		mut(&cfg)
		return cfg
	}
	brokenTier := func(mut func(*Config)) Config {
		cfg := DefaultTiered()
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"flat", Config{}, nil},
		{"disaggregated-default", DefaultDisaggregated(), nil},
		{"tiered-default", DefaultTiered(), nil},
		{"bad-kind", Config{Kind: Kind(99)}, ErrKind},
		{"sentinel-kind", Config{Kind: numKinds}, ErrKind},
		{"zero-hop-cycles", broken(func(c *Config) { c.Far.HopCycles = 0 }), ErrTierLatency},
		{"zero-flit-cycles", broken(func(c *Config) { c.Far.FlitCycles = 0 }), ErrTierLatency},
		{"zero-mem-cycles", broken(func(c *Config) { c.Far.MemCycles = 0 }), ErrTierLatency},
		{"zero-hops", broken(func(c *Config) { c.Far.Hops = 0 }), ErrTierSize},
		{"zero-flits", broken(func(c *Config) { c.Far.Flits = 0 }), ErrTierSize},
		{"zero-dram-read", brokenTier(func(c *Config) { c.DRAMRead = 0 }), ErrTierLatency},
		{"zero-nvm-write", brokenTier(func(c *Config) { c.NVMWrite = 0 }), ErrTierLatency},
		{"zero-dram-blocks", brokenTier(func(c *Config) { c.DRAMBlocks = 0 }), ErrTierSize},
		{"zero-promote", brokenTier(func(c *Config) { c.PromoteAfter = 0 }), ErrPromotion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

func TestFlatBuildsNoModel(t *testing.T) {
	if m := New(sim.NewEngine(), 4, Config{}); m != nil {
		t.Fatalf("flat config built a model: %+v", m)
	}
}

func TestDisaggregatedLatencyAndQueueing(t *testing.T) {
	cfg := Config{Kind: KindDisaggregated, Far: mesh.TierConfig{
		Hops: 2, HopCycles: 5, FlitCycles: 2, Flits: 4, MemCycles: 10,
	}}
	m := New(sim.NewEngine(), 2, cfg)
	// ser=8, round trip hops=20, mem=10 -> uncontended total 38.
	if got := m.Access(0, 0, false); got != 38 {
		t.Fatalf("first access cost %d, want 38", got)
	}
	// Same cycle, same home: queues behind the first transfer's 8-cycle
	// link occupancy.
	if got := m.Access(0, 1, false); got != 46 {
		t.Fatalf("second access cost %d, want 46 (8 queued + 38)", got)
	}
	if q := m.LinkQueued(0); q != 8 {
		t.Fatalf("link queued %d cycles, want 8", q)
	}
	// A different home's link is independent.
	if got := m.Access(1, 2, true); got != 38 {
		t.Fatalf("other home's access cost %d, want 38", got)
	}
	if m.Stats().Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", m.Stats().Accesses)
	}
}

func TestDisaggregatedZeroLatencyIsFree(t *testing.T) {
	// New does not validate timing, so a zero-latency tier must build
	// and charge nothing.
	m := New(sim.NewEngine(), 2, Config{Kind: KindDisaggregated})
	for i := 0; i < 4; i++ {
		if got := m.Access(0, mem.Block(i), i%2 == 0); got != 0 {
			t.Fatalf("zero-latency access cost %d", got)
		}
	}
}

func TestTieredAsymmetryAndPromotion(t *testing.T) {
	cfg := Config{
		Kind: KindTiered, DRAMRead: 2, DRAMWrite: 3, NVMRead: 20, NVMWrite: 50,
		DRAMBlocks: 1, PromoteAfter: 2,
	}
	eng := sim.NewEngine()
	m := New(eng, 1, cfg)
	b0, b1 := mem.Block(0), mem.Block(1)

	// Drain the channel between accesses so queueing does not blur the
	// per-access latencies under test.
	access := func(b mem.Block, write bool) sim.Cycle {
		lat := m.Access(0, b, write)
		eng.AfterCall(lat+1, nil, nopCaller{})
		for eng.Step() {
		}
		return lat
	}

	if got := access(b0, false); got != 20 {
		t.Fatalf("NVM read cost %d, want 20", got)
	}
	if got := access(b0, true); got != 50 {
		t.Fatalf("NVM write cost %d, want 50", got)
	}
	// Second touch crossed PromoteAfter: b0 is now in DRAM.
	if !m.InDRAM(b0) {
		t.Fatal("block 0 not promoted after 2 touches")
	}
	if got := access(b0, false); got != 2 {
		t.Fatalf("DRAM read cost %d, want 2", got)
	}
	if got := access(b0, true); got != 3 {
		t.Fatalf("DRAM write cost %d, want 3", got)
	}
	// Promoting b1 into the 1-block set evicts b0 (FIFO), which must
	// re-earn promotion from a reset touch count.
	access(b1, false)
	access(b1, false)
	if !m.InDRAM(b1) || m.InDRAM(b0) {
		t.Fatalf("capacity eviction wrong: b0 in DRAM=%v, b1 in DRAM=%v", m.InDRAM(b0), m.InDRAM(b1))
	}
	if got := access(b0, false); got != 20 {
		t.Fatalf("demoted block read cost %d, want 20 (NVM)", got)
	}
	if m.Stats().Promotions != 2 || m.Stats().Demotions != 1 {
		t.Fatalf("promotions=%d demotions=%d, want 2/1", m.Stats().Promotions, m.Stats().Demotions)
	}
}

func TestTieredChannelQueueing(t *testing.T) {
	cfg := DefaultTiered()
	m := New(sim.NewEngine(), 1, cfg)
	first := m.Access(0, 0, false)
	second := m.Access(0, 1, false)
	if second != first+cfg.NVMRead {
		t.Fatalf("same-cycle second access cost %d, want %d (queued behind the first)",
			second, first+cfg.NVMRead)
	}
	if m.Stats().FarQueued != first {
		t.Fatalf("queued %d cycles, want %d", m.Stats().FarQueued, first)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []sim.Cycle {
		m := New(sim.NewEngine(), 2, DefaultTiered())
		var out []sim.Cycle
		for i := 0; i < 32; i++ {
			out = append(out, m.Access(mem.NodeID(i%2), mem.Block(i%5), i%3 == 0))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestKindString(t *testing.T) {
	want := []struct {
		k Kind
		s string
	}{{KindFlat, "flat"}, {KindDisaggregated, "disaggregated"}, {KindTiered, "tiered"}}
	for _, tc := range want {
		if tc.k.String() != tc.s {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(tc.k), tc.k.String(), tc.s)
		}
	}
}

// nopCaller is an engine event that does nothing.
type nopCaller struct{}

func (nopCaller) Fire() {}
