package mc

import (
	"sort"
)

// This file implements sleep-set partial-order reduction over the
// copy-based fork engine.
//
// The full enumeration explores every interleaving of enabled choices,
// but many interleavings are equivalent: two injections that touch
// different blocks — and cannot serialize against each other through a
// software trap on a shared home node — commute, so exploring "a then b"
// and "b then a" reaches the same states twice. Sleep sets prune the
// second order: when a state's choices are expanded in canonical order,
// each successor inherits a *sleep set* containing the injections whose
// alternate orderings an earlier sibling already covers, filtered down to
// the ones that commute with the choice just taken. A slept injection is
// not expanded again from that successor.
//
// # Independence
//
// Injections a and b are independent when
//
//	block(a) != block(b)  AND
//	(home(block(a)) != home(block(b))  OR  neither block's spec uses software)
//
// Different blocks never share cache or directory state (worlds allocate
// tracked blocks into distinct cache sets, so cross-block displacement is
// impossible), and at zero latency the only cross-block coupling left is
// the software trap scheduler: handlers for two blocks homed on the same
// node share that node's trap servicing, and a directory-overflow trap
// for one block can reorder against the other's. Hardware-only specs
// never trap, so same-home hardware blocks stay independent.
//
// Firing an engine event is treated like an operation on the block its
// inspection tag names (proto.Fabric.NextEventBlock); an event whose tag
// identifies no block conservatively clears the sleep set.
//
// # Soundness
//
// The per-block invariants (single-writer, identical-readers, agreement)
// are insensitive to the orderings sleep sets prune: a pruned
// interleaving permutes independent transitions of an explored one, and
// every intermediate state it visits projects, block by block, onto a
// state the explored interleaving visits. Quiescent states are preserved
// exactly — once the event queue drains, the transient event orderings
// that distinguish the permuted paths are gone — so the reduced run
// reaches the identical set of quiescent fingerprints and the identical
// verdict. TestPOREquivalence checks both properties against the full
// enumeration on every configuration small enough to run both.
//
// # Bookkeeping
//
// The visited set maps fingerprint → the sleep set the state was last
// expanded with. Reaching a visited state with a sleep set that is not a
// superset of the stored one means some ordering the earlier expansion
// slept is no longer covered; the state is re-expanded with the
// intersection (standard for sleep sets combined with state matching —
// monotone, so exploration terminates). Re-expansions revisit edges but
// never re-count the state.

// pnode is one POR frontier entry: a frontier node plus its sleep set.
type pnode struct {
	trace   []Choice
	choices []Choice
	sleep   []Op // sorted by (Node, Block, Act)
}

// porCtx carries the run-wide reduction context.
type porCtx struct {
	cfg Config
	// softBlock[i] reports whether tracked block i's governing spec can
	// trap into software (Config.blockSpec — overrides included).
	softBlock []bool
}

func newPorCtx(cfg Config) *porCtx {
	ctx := &porCtx{cfg: cfg, softBlock: make([]bool, cfg.Blocks)}
	for i := 0; i < cfg.Blocks; i++ {
		ctx.softBlock[i] = cfg.blockSpec(i).UsesSoftware()
	}
	return ctx
}

// independentBlocks is the independence relation over tracked-block
// indices (see the file comment for the argument).
func (ctx *porCtx) independentBlocks(a, b int) bool {
	if ctx.cfg.independence != nil {
		return ctx.cfg.independence(a, b)
	}
	if a == b {
		return false
	}
	if a%ctx.cfg.Nodes != b%ctx.cfg.Nodes { // block i is homed on node i mod Nodes
		return true
	}
	return !ctx.softBlock[a] && !ctx.softBlock[b]
}

// succSleep builds the successor's sleep set after taking choice c from a
// state with sleep set sleep, where prior lists the injections already
// expanded at this state (their orderings are covered by the siblings).
// scopeBlock is the tracked-block index c operates on, or -1 when c is an
// event whose scope is unknown (conservative: sleeps nothing).
func (ctx *porCtx) succSleep(sleep []Op, prior []Op, scopeBlock int) []Op {
	if scopeBlock < 0 {
		return nil
	}
	var out []Op
	for _, o := range sleep {
		if ctx.independentBlocks(scopeBlock, o.Block) {
			out = append(out, o)
		}
	}
	for _, o := range prior {
		if ctx.independentBlocks(scopeBlock, o.Block) {
			out = append(out, o)
		}
	}
	sortOps(out)
	return dedupOps(out)
}

// scopeOf resolves the tracked-block index a choice operates on in world
// w (before the choice is applied), or -1 when it cannot be identified.
func (w *world) scopeOf(c Choice) int {
	if !c.Step {
		return c.Op.Block
	}
	b, ok := w.fabric.NextEventBlock()
	if !ok {
		return -1
	}
	bi, tracked := w.blockIdx[b]
	if !tracked {
		return -1
	}
	return bi
}

func sortOps(ops []Op) {
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Act < b.Act
	})
}

func dedupOps(ops []Op) []Op {
	out := ops[:0]
	for i, o := range ops {
		if i == 0 || o != ops[i-1] {
			out = append(out, o)
		}
	}
	return out
}

// subsetOps reports a ⊆ b for sorted op slices.
func subsetOps(a, b []Op) bool {
	j := 0
	for _, o := range a {
		for j < len(b) && lessOp(b[j], o) {
			j++
		}
		if j >= len(b) || b[j] != o {
			return false
		}
	}
	return true
}

// intersectOps returns a ∩ b for sorted op slices, sorted.
func intersectOps(a, b []Op) []Op {
	var out []Op
	j := 0
	for _, o := range a {
		for j < len(b) && lessOp(b[j], o) {
			j++
		}
		if j < len(b) && b[j] == o {
			out = append(out, o)
		}
	}
	return out
}

func lessOp(a, b Op) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Act < b.Act
}

// checkPOR is the sleep-set exploration: BFS over the same transition
// system as checkFull, pruning injections their sleep sets cover.
func checkPOR(cfg Config, maxStates int, res *Result) error {
	ctx := newPorCtx(cfg)
	w, err := newWorld(cfg)
	if err != nil {
		return err
	}
	if inv, detail := w.invariantViolation(); inv != "" {
		res.Violation = &Violation{Invariant: inv, Detail: detail}
		return nil
	}
	// visited: fingerprint → sleep set the state was last expanded with.
	var key []byte
	key = w.fingerprint(key[:0])
	visited := map[string][]Op{string(key): nil}
	res.States = 1
	res.noteQuiescent(w, key)
	frontier := []pnode{{trace: nil, choices: w.choices(), sleep: nil}}
	path := newPath(w)

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		parent, err := path.at(cur.trace)
		if err != nil {
			return err
		}
		asleep := make(map[Op]bool, len(cur.sleep))
		for _, o := range cur.sleep {
			asleep[o] = true
		}
		last := -1 // the last choice expanded
		for i, c := range cur.choices {
			if c.Step || !asleep[c.Op] {
				last = i
			}
		}
		var prior []Op // injections expanded at this state so far
		for i, c := range cur.choices {
			if !c.Step && asleep[c.Op] {
				res.SleptTransitions++
				continue
			}
			cw, err := path.successor(parent, i == last)
			if err != nil {
				return err
			}
			scope := cw.scopeOf(c)
			cw.apply(c)
			res.Transitions++
			trace := append(append([]Choice{}, cur.trace...), c)
			if len(trace) > res.MaxDepth {
				res.MaxDepth = len(trace)
			}
			if inv, detail := cw.invariantViolation(); inv != "" {
				res.Violation = &Violation{Invariant: inv, Detail: detail, Trace: trace}
				return nil
			}
			sleep := ctx.succSleep(cur.sleep, prior, scope)
			if !c.Step {
				prior = append(prior, c.Op)
			}
			key = cw.fingerprint(key[:0])
			old, seen := visited[string(key)]
			switch {
			case seen && subsetOps(old, sleep):
				// The earlier expansion explored at least as much.
			case seen:
				// The earlier expansion slept orderings this path needs:
				// re-expand with the intersection (never larger than
				// either set, so repeated merges reach a fixpoint).
				merged := intersectOps(old, sleep)
				visited[string(key)] = merged
				frontier = append(frontier, pnode{trace: trace, choices: cw.choices(), sleep: merged})
			case res.States >= uint64(maxStates):
				res.Bounded = true
			default:
				visited[string(key)] = sleep
				res.States++
				res.noteQuiescent(cw, key)
				frontier = append(frontier, pnode{trace: trace, choices: cw.choices(), sleep: sleep})
			}
			path.free(cw)
		}
	}
	return nil
}
