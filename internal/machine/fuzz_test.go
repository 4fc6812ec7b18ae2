package machine_test

import (
	"errors"
	"testing"

	"swex/internal/apps"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/proto"
)

// fuzzCycleLimit bounds each fuzzed run. A 2-iteration WORKER on at most
// 8 nodes finishes in well under a tenth of it under every protocol; a
// run that reaches it is taken as a machine that cannot make progress.
const fuzzCycleLimit = 20_000_000

// fuzzSpec maps one input word onto a protocol: a named point of the
// spectrum when the top bit is clear, otherwise the raw Spec fields
// (which Validate may reject).
func fuzzSpec(w uint16) proto.Spec {
	if w&0x8000 == 0 {
		aliases := litmus.SpecAliases()
		s, err := litmus.SpecByAlias(aliases[int(w)%len(aliases)])
		if err != nil {
			panic(err)
		}
		return s
	}
	return proto.Spec{
		Name:         "fuzz",
		HWPointers:   int(w%8) - 1,
		FullMap:      w&0x08 != 0,
		LocalBit:     w&0x10 != 0,
		AckMode:      proto.AckMode(w >> 5 % 3),
		Broadcast:    w&0x80 != 0,
		SoftwareOnly: w&0x100 != 0,
	}
}

// FuzzConfigRuns maps its input onto a small machine configuration: 1 to
// 8 nodes, any protocol, ThreadsPerNode in -1..5, the cache geometry,
// victim lines and the enhancement flags. A configuration Validate
// rejects must fail with one of the named errors, never a panic; one it
// accepts must build and run a 2-iteration WORKER to completion under the
// coherence checker within fuzzCycleLimit. It is the standing check that
// no configuration needs a livelock watchdog to terminate. The seed
// corpus runs under go test.
func FuzzConfigRuns(f *testing.F) {
	// nodes, spec, threads, lines, ways, victim, flags; threads 2 is one
	// context, and lines counts units of 16 lines.
	f.Add(uint8(3), uint16(0), uint8(2), int8(0), uint8(0), uint8(0), uint8(0))      // full-map
	f.Add(uint8(7), uint16(1), uint8(2), int8(4), uint8(2), uint8(4), uint8(0x0f))   // h5, every enhancement
	f.Add(uint8(7), uint16(7), uint8(3), int8(8), uint8(1), uint8(0), uint8(0))      // h1ack, 2 contexts
	f.Add(uint8(5), uint16(8), uint8(5), int8(2), uint8(4), uint8(8), uint8(0x02))   // h0, 4 contexts
	f.Add(uint8(3), uint16(9), uint8(2), int8(0), uint8(0), uint8(0), uint8(0))      // dir1sw
	f.Add(uint8(2), uint16(4), uint8(1), int8(1), uint8(0), uint8(1), uint8(0))      // h2, 0 contexts
	f.Add(uint8(0), uint16(6), uint8(2), int8(1), uint8(0), uint8(0), uint8(0x01))   // h1lack, 1 node
	f.Add(uint8(3), uint16(0), uint8(6), int8(0), uint8(0), uint8(0), uint8(0))      // 5 contexts
	f.Add(uint8(3), uint16(0), uint8(0), int8(0), uint8(0), uint8(0), uint8(0))      // -1 contexts
	f.Add(uint8(3), uint16(1), uint8(2), int8(-1), uint8(0), uint8(0), uint8(0))     // negative lines
	f.Add(uint8(3), uint16(1), uint8(2), int8(5), uint8(3), uint8(0), uint8(0))      // 3 ways, 80 lines
	f.Add(uint8(3), uint16(0x8102), uint8(2), int8(0), uint8(0), uint8(0), uint8(0)) // software-only, 1 pointer
	f.Add(uint8(3), uint16(0x8092), uint8(2), int8(0), uint8(0), uint8(0), uint8(0)) // broadcast, 1 pointer
	f.Fuzz(func(t *testing.T, nodes uint8, spec uint16, threads uint8, lines int8, ways, victim, flags uint8) {
		cfg := machine.Config{
			Nodes:           1 + int(nodes%8),
			Spec:            fuzzSpec(spec),
			ThreadsPerNode:  int(threads%7) - 1,
			VictimLines:     int(victim % 16),
			CacheWays:       int(ways % 9),
			PerfectIfetch:   flags&0x01 != 0,
			BatchReads:      flags&0x02 != 0,
			ParallelInv:     flags&0x04 != 0,
			MigratoryDetect: flags&0x08 != 0,
		}
		// Lines are in units of 16 so that small shapes stay common; zero
		// keeps the default 4096 and a negative count is bad geometry.
		cfg.CacheLines = int(lines) * 16
		if lines < 0 {
			cfg.CacheLines = int(lines)
		}
		if err := cfg.Validate(); err != nil {
			for _, named := range []error{machine.ErrNodes, machine.ErrThreads,
				machine.ErrCacheGeometry, machine.ErrLoseInv, proto.ErrSpec} {
				if errors.Is(err, named) {
					return
				}
			}
			t.Fatalf("Validate(%+v) = %v, not a named error", cfg, err)
		}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatalf("New(%+v) after Validate accepted it: %v", cfg, err)
		}
		m.Fabric.EnableChecker()
		prog := apps.Worker(apps.WorkerParams{SetSize: cfg.Nodes - 1, Iters: 2})
		if _, _, err := prog.Run(m, fuzzCycleLimit); err != nil {
			t.Fatalf("WORKER on %+v: %v", cfg, err)
		}
	})
}
