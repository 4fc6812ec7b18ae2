package mc

import (
	"encoding/binary"
	"fmt"
	"slices"

	"swex/internal/cache"
	"swex/internal/mem"
	"swex/internal/mesh"
	"swex/internal/proto"
	"swex/internal/sim"
)

// world is one concrete machine under exploration: the real simulator
// stack (engine, mesh, memory, fabric) plus the checker's operation
// bookkeeping. The checker forks a world by copying it (clone), so worlds
// must copy deterministically and cheaply.
type world struct {
	*layout
	engine *sim.Engine
	fabric *proto.Fabric
	// injected counts operations presented so far; completed counts the
	// ones that completed (through the fabric's Completer, or locally for
	// evictions and check-ins). Both are part of the logical state (they
	// bound the remaining alphabet and feed the quiescence invariant), so
	// fingerprint folds them in.
	injected  int
	completed int
}

// layout is what every world of one run shares: the configuration and
// where its tracked blocks live.
type layout struct {
	cfg Config
	// acts is the resolved action alphabet (Config.alphabet()).
	acts []Action
	// blocks are the tracked blocks, block i homed on node i mod Nodes.
	blocks []mem.Block
	// sorted holds blocks in ascending order, as the snapshot wants them.
	sorted []mem.Block
	// addrs[i] is the base word address of blocks[i].
	addrs []mem.Addr
	// blockIdx maps a tracked block back to its index (POR event scoping).
	blockIdx map[mem.Block]int
}

// newWorld assembles a fresh machine for the configuration. Zero-latency
// mesh timing plus an all-zero proto.Timing keep simulated time frozen at
// cycle zero, so state fingerprints are independent of history.
func newWorld(cfg Config) (*world, error) {
	engine := sim.NewEngine()
	net := mesh.New(engine, mesh.ZeroLatency(cfg.Nodes))
	memory := mem.New(cfg.Nodes)
	var soft proto.Software
	if cfg.Spec.UsesSoftware() {
		soft = proto.NewNopSoftware()
	}
	// Four lines are enough: validate allows at most four tracked blocks,
	// and the segment padding below puts tracked block i in set i, so no
	// two tracked blocks ever share a set. Nothing else is cached
	// (instruction fetch is perfect), and every line is copied on each
	// fork, so a larger cache would only cost copying.
	cacheCfg := proto.CacheConfig{
		Cache:         cache.Config{Lines: 4},
		PerfectIfetch: true,
	}
	f, err := proto.NewFabric(engine, net, memory, cfg.Spec, proto.Timing{}, soft, cacheCfg)
	if err != nil {
		return nil, err
	}
	f.MigratoryDetect = cfg.MigratoryDetect
	f.BatchReads = cfg.BatchReads
	f.Fault = cfg.Fault
	l := &layout{cfg: cfg, acts: cfg.alphabet(), blockIdx: make(map[mem.Block]int)}
	for i := 0; i < cfg.Blocks; i++ {
		home := mem.NodeID(i % cfg.Nodes)
		// Pad the segment so tracked block i lands in cache set i. Every
		// segment base is ≡ 0 mod the set count, so without padding every
		// node's first allocation — and therefore all tracked blocks of a
		// Blocks ≤ Nodes run — would collide in set 0 of the direct-mapped
		// cache and displace each other. Distinct sets make cross-block
		// displacement impossible, which the POR independence relation
		// (two ops on different blocks commute) depends on: the only
		// evictions are the alphabet's explicit ones.
		for int(memory.InUse(home)) < i*mem.WordsPerBlock {
			memory.AllocOn(home, mem.WordsPerBlock)
		}
		a := memory.AllocOn(home, mem.WordsPerBlock)
		l.addrs = append(l.addrs, a)
		l.blocks = append(l.blocks, mem.BlockOf(a))
		l.blockIdx[mem.BlockOf(a)] = i
	}
	l.sorted = slices.Clone(l.blocks)
	slices.Sort(l.sorted)
	for i, ov := range cfg.Overrides {
		if ov.Name == "" {
			continue
		}
		if err := f.Home(mem.HomeOfBlock(l.blocks[i])).Configure(l.blocks[i], ov); err != nil {
			return nil, err
		}
	}
	w := &world{layout: l, engine: engine, fabric: f}
	f.Completer = w
	return w, nil
}

// Complete implements proto.Completer: the checker only counts
// completions.
func (w *world) Complete(mem.NodeID, uint64, uint64) { w.completed++ }

// clone forks the world: an independent copy in the same state. A
// non-nil dst is a dead world whose storage the copy reuses.
func (w *world) clone(dst *world) (*world, error) {
	if dst == nil {
		dst = &world{layout: w.layout}
	}
	dst.injected, dst.completed = w.injected, w.completed
	f, err := w.fabric.CloneInto(dst.fabric, dst)
	if err != nil {
		return nil, err
	}
	dst.fabric, dst.engine = f, f.Engine
	return dst, nil
}

// choices appends to out the outgoing edges of the current state in a
// fixed canonical order: the engine step first (when anything is
// pending), then enabled injections by (node, block, action).
func (w *world) choices(out []Choice) []Choice {
	if w.engine.Pending() > 0 {
		out = append(out, Choice{Step: true})
	}
	if w.injected >= w.cfg.MaxOps {
		return out
	}
	for n := 0; n < w.cfg.Nodes; n++ {
		id := mem.NodeID(n)
		for bi := range w.blocks {
			for _, a := range w.acts {
				if w.enabled(id, bi, a) {
					out = append(out, Choice{Op: Op{Node: id, Block: bi, Act: a}})
				}
			}
		}
	}
	return out
}

// enabled reports whether injecting the action now is meaningful. Actions
// that would be pure no-ops (reading a resident block, evicting an absent
// one) are pruned: they cannot change the state, so exploring them only
// duplicates edges the visited set would fold anyway.
func (w *world) enabled(id mem.NodeID, bi int, a Action) bool {
	cc := w.fabric.Cache(id)
	b := w.blocks[bi]
	line, ok := cc.HasBlock(b)
	resident := ok && line.State != cache.Invalid
	switch a {
	case ActRead:
		return !resident
	case ActWrite:
		return true
	case ActEvict:
		return resident
	case ActCheckIn:
		return resident && !cc.HasTxn(b)
	case ActCheckOut:
		return !resident || line.State != cache.Exclusive
	case ActWatch:
		// One parked watcher per (node, block) bounds the watcher state;
		// a resident copy whose watched word has already changed would
		// complete synchronously without touching protocol state, so it
		// is pruned like a read hit.
		if cc.Parked(b) > 0 {
			return false
		}
		return !resident || line.Words[0] == 0
	default:
		panic(fmt.Sprintf("mc: unknown action %d", int(a)))
	}
}

// apply executes one choice. Injections present the operation to the cache
// controller exactly as a processor would; the controller may complete it
// synchronously (a hit) or leave events pending (a miss).
func (w *world) apply(c Choice) {
	if c.Step {
		if !w.engine.Step() {
			panic("mc: step applied with empty event queue")
		}
		return
	}
	w.injected++
	cc := w.fabric.Cache(c.Op.Node)
	a := w.addrs[c.Op.Block]
	switch c.Op.Act {
	case ActRead:
		cc.Access(a, proto.Op{})
	case ActWrite:
		// Distinctive per-node value keeps the data domain finite while
		// still distinguishing which writer's store landed.
		cc.Access(a, proto.Op{Write: true, Value: uint64(c.Op.Node) + 1})
	case ActEvict:
		cc.Evict(w.blocks[c.Op.Block])
		w.completed++
	case ActCheckIn:
		cc.CheckIn(a)
		w.completed++
	case ActCheckOut:
		cc.CheckOut(a, proto.Op{})
	case ActWatch:
		// The consumer side of the producer–consumer pair: wait for the
		// block's first word to change from its initial zero. Completes
		// (counting toward the quiescence ledger) only when a producer's
		// distinctive value becomes visible; until then the watcher is
		// parked and accounted by parkedWatchers.
		cc.Watch(a, 0, proto.Op{})
	default:
		panic(fmt.Sprintf("mc: unknown action %d", int(c.Op.Act)))
	}
}

// parkedWatchers counts watchers currently parked anywhere in the
// machine. A parked watcher is an injected-but-incomplete operation that
// is legitimately allowed to outlive quiescence (its wakeup depends on a
// future producer), so the quiescence ledger nets it out.
func (w *world) parkedWatchers() int {
	total := 0
	for n := 0; n < w.cfg.Nodes; n++ {
		cc := w.fabric.Cache(mem.NodeID(n))
		for _, b := range w.blocks {
			total += cc.Parked(b)
		}
	}
	return total
}

// fingerprint appends the canonical state key to dst: the fabric
// snapshot plus the operation counters (which bound the remaining
// alphabet, so machines that look identical but have different budgets
// left must not merge).
func (w *world) fingerprint(dst []byte) []byte {
	dst = w.fabric.AppendSnapshot(dst, w.sorted)
	dst = append(dst, 'O')
	dst = binary.AppendUvarint(dst, uint64(w.injected))
	return binary.AppendUvarint(dst, uint64(w.completed))
}

// invariantViolation evaluates every invariant against the current state,
// returning the failed invariant's name and a description, or "", "".
func (w *world) invariantViolation() (string, string) {
	for bi, b := range w.blocks {
		if d := w.fabric.SingleWriterViolation(b); d != "" {
			return "single-writer", d
		}
		if d := w.fabric.IdenticalReadersViolation(b); d != "" {
			return "identical-readers", d
		}
		if d := w.fabric.AgreementViolation(b); d != "" {
			// Name any consumer the inconsistency strands: a counterexample
			// that loses an invalidation under the watch alphabet should
			// say which node's watcher never hears about it.
			return "agreement", d + w.watcherNote(bi)
		}
	}
	if w.engine.Pending() == 0 {
		parked := w.parkedWatchers()
		if w.completed+parked != w.injected {
			return "quiescence", fmt.Sprintf("event queue drained with %d of %d operations incomplete (%d watchers parked)",
				w.injected-w.completed, w.injected, parked)
		}
		if d := w.fabric.QuiescenceViolation(w.blocks); d != "" {
			return "quiescence", d
		}
		if inv, d := w.lostWakeupViolation(); d != "" {
			return inv, d
		}
	}
	return "", ""
}

// lostWakeupViolation checks, at quiescence, that every parked watcher is
// parked for a reason: the block's coherent value must still equal the
// value the watcher is waiting to see change. A watcher parked on a stale
// value means some producer's store committed without the park/re-arm
// machinery re-reading it — the consumer would spin forever on a real
// machine.
func (w *world) lostWakeupViolation() (string, string) {
	for n := 0; n < w.cfg.Nodes; n++ {
		id := mem.NodeID(n)
		cc := w.fabric.Cache(id)
		for bi, b := range w.blocks {
			for _, wi := range cc.ParkedWatchers(b) {
				if cur := w.coherentWord(bi, wi.Addr); cur != wi.Old {
					return "lost-wakeup", fmt.Sprintf(
						"node %d's watcher on block %d (old=%d) is still parked but the coherent value is %d — its wakeup was lost",
						id, b, wi.Old, cur)
				}
			}
		}
	}
	return "", ""
}

// watcherNote describes the watchers parked on tracked block bi, for
// attachment to another invariant's detail ("" when none are parked).
func (w *world) watcherNote(bi int) string {
	b := w.blocks[bi]
	note := ""
	for n := 0; n < w.cfg.Nodes; n++ {
		id := mem.NodeID(n)
		for _, wi := range w.fabric.Cache(id).ParkedWatchers(b) {
			note += fmt.Sprintf("; node %d's watcher on block %d (old=%d) is still parked",
				id, b, wi.Old)
		}
	}
	return note
}

// coherentWord resolves the current coherent value of the word at addr in
// tracked block bi: an Exclusive copy's word if one exists (it is the
// only writable copy), home memory otherwise. Shared copies never diverge
// from memory outside a transient the identical-readers invariant already
// guards.
func (w *world) coherentWord(bi int, addr mem.Addr) uint64 {
	b := w.blocks[bi]
	off := int(addr - b.Base())
	for n := 0; n < w.cfg.Nodes; n++ {
		l, ok := w.fabric.Cache(mem.NodeID(n)).HasBlock(b)
		if ok && l.State == cache.Exclusive {
			return l.Words[off]
		}
	}
	return w.fabric.Mem.ReadBlock(b)[off]
}
