package mc

import (
	"fmt"
	"slices"

	"swex/internal/mem"
	"swex/internal/proto"
)

// Action is one member of the model checker's action alphabet.
type Action int

const (
	// ActRead presents a load; enabled when the node holds no copy.
	ActRead Action = iota
	// ActWrite presents a store of a per-node distinctive value; always
	// enabled (a hit commits locally, a miss or upgrade transacts).
	ActWrite
	// ActEvict silently drops the node's copy, writing back if dirty;
	// enabled when a copy is resident.
	ActEvict
	// ActCheckIn runs the CICO check-in directive (relinquish or write
	// back); enabled when a copy is resident and no transaction is
	// outstanding.
	ActCheckIn
	// ActCheckOut runs the CICO check-out directive (acquire exclusive
	// ownership before use); enabled unless the copy is already held
	// exclusive. Issued over a pending read transaction it upgrades the
	// transaction in flight — the raciest path in the directive's
	// implementation, and the reason it belongs in the alphabet.
	ActCheckOut
	// ActWatch parks a consumer on the block's first word until it
	// changes from its initial zero — the producer–consumer half of the
	// alphabet (every ActWrite is a producer: it stores a non-zero
	// distinctive value). Enabled when the node has no watcher already
	// parked on the block and the watched word is not already known
	// changed. Exercises the park/re-arm machinery against every
	// invalidation, eviction, and local-store ordering, which no other
	// action reaches.
	ActWatch
	numActions
)

// String names the Action as it appears in traces and counterexamples.
func (a Action) String() string {
	switch a {
	case ActRead:
		return "read"
	case ActWrite:
		return "write"
	case ActEvict:
		return "evict"
	case ActCheckIn:
		return "checkin"
	case ActCheckOut:
		return "checkout"
	case ActWatch:
		return "watch"
	default:
		panic(fmt.Sprintf("mc: unknown action %d", int(a)))
	}
}

// Op is one injectable operation: an action by a node on a tracked block.
type Op struct {
	// Node is the acting node.
	Node mem.NodeID
	// Block is the index into the world's tracked blocks.
	Block int
	// Act is the action performed.
	Act Action
}

// Choice is one edge of the transition system: either fire the next
// pending engine event (Step) or inject an operation.
type Choice struct {
	// Step selects firing the next pending engine event; Op is ignored.
	Step bool
	// Op is the operation to inject when Step is false.
	Op Op
}

// String renders the Choice as it appears in traces and counterexamples.
func (c Choice) String() string {
	if c.Step {
		return "step"
	}
	return fmt.Sprintf("node%d %s b%d", c.Op.Node, c.Op.Act, c.Op.Block)
}

// Config describes one model-checking run.
type Config struct {
	// Spec is the protocol to check.
	Spec proto.Spec
	// Nodes is the machine size (2 or 3 for exhaustive runs).
	Nodes int
	// Blocks is how many blocks the alphabet touches (1 or 2); block i is
	// homed on node i mod Nodes.
	Blocks int
	// MaxOps bounds the number of injected operations per trace — the
	// exploration depth. Event steps are not counted: once injected, work
	// always runs to completion.
	MaxOps int
	// MaxStates bounds the visited set (frontier bound); 0 means the
	// package default. Hitting the bound sets Result.Bounded.
	MaxStates int
	// MigratoryDetect toggles the Section 7 migratory-data adaptation on
	// the checked machine.
	MigratoryDetect bool
	// BatchReads toggles the Section 7 read-burst batching enhancement on
	// the checked machine.
	BatchReads bool
	// Actions, when non-nil, replaces the default alphabet
	// (DefaultActions) entirely; the watch alphabet is
	// append(DefaultActions(), ActWatch).
	// Restricting the alphabet steers BFS's shortest counterexample:
	// with ActRead excluded, for example, the only way to a shared copy
	// is through a watch, so a seeded invalidation-drop surfaces on the
	// watch path. Duplicates are rejected; order does not matter (the
	// alphabet is enumerated in canonical Action order).
	Actions []Action
	// Overrides configures per-block protocol overrides: block i runs
	// Overrides[i] (applied via proto.HomeCtl.Configure before the first
	// reference) when its Name is non-empty, the machine Spec otherwise.
	// May be shorter than Blocks. An override the machine's software
	// cannot express is rejected, exactly as on the real machine.
	Overrides []proto.Spec
	// POR enables sleep-set partial-order reduction (see por.go). It
	// preserves every invariant verdict and the exact set of quiescent
	// states, but visits fewer of the transient orderings in between, so
	// States/Transitions shrink.
	POR bool
	// Fault, when armed, drops one message in every explored world (see
	// proto.Fault). Used to seed protocol bugs the checker should catch.
	// Its progress is part of each state's fingerprint.
	Fault proto.Fault

	// independence, when non-nil, replaces the POR independence relation
	// over tracked-block indices (por.go, independentBlocks).
	// Test hook only: the negative fixture installs a deliberately
	// unsound relation to prove the equivalence test has teeth.
	independence func(a, b int) bool
	// collectQuiescent records the fingerprint of every quiescent state
	// in Result.quiescentSet. Test hook only: the POR equivalence tests
	// compare these sets between reduced and full runs.
	collectQuiescent bool
}

// DefaultMaxStates bounds the visited set when Config.MaxStates is zero.
const DefaultMaxStates = 1 << 20

// maxNodes and maxBlocks bound Config.Nodes and Config.Blocks; together
// with numActions they size opSet.
const (
	maxNodes  = 8
	maxBlocks = 4
)

// Violation describes an invariant failure, with the shortest trace that
// reaches it.
type Violation struct {
	// Invariant names the failed predicate.
	Invariant string
	// Detail describes the failing state.
	Detail string
	// Trace is the choice sequence from the initial state.
	Trace []Choice
}

// String renders the Violation as a one-line verdict.
func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s (trace length %d)", v.Invariant, v.Detail, len(v.Trace))
}

// Result summarizes one run.
type Result struct {
	// Spec echoes the checked protocol.
	Spec proto.Spec
	// States counts distinct reachable states (visited-set size).
	States uint64
	// Transitions counts explored edges.
	Transitions uint64
	// MaxDepth is the longest trace explored.
	MaxDepth int
	// Quiescent counts states with an empty event queue (all of which
	// passed the quiescence invariant).
	Quiescent uint64
	// Bounded reports that exploration stopped at MaxStates and the
	// state space was NOT exhausted.
	Bounded bool
	// SleptTransitions counts the edges partial-order reduction pruned:
	// enabled injections skipped because a sleep set proved an explored
	// sibling ordering equivalent. Zero when Config.POR is off.
	SleptTransitions uint64
	// Violation is non-nil if an invariant failed; exploration stops at
	// the first violation.
	Violation *Violation

	// quiescentSet holds the fingerprint of every quiescent state
	// reached, when Config.collectQuiescent is set (nil otherwise).
	quiescentSet map[string]struct{}
}

// node is one frontier entry: the trace that reaches a state and the
// sleep set the state is expanded with (always empty without POR).
type node struct {
	trace []Choice
	sleep opSet
}

// Check explores the reachable state space of the configured machine and
// returns counts plus the first invariant violation found, if any. It is
// deterministic: the same Config always yields the same Result.
func Check(cfg Config) (*Result, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	res := &Result{Spec: cfg.Spec}
	if cfg.collectQuiescent {
		res.quiescentSet = make(map[string]struct{})
	}
	return res, search(cfg, maxStates, res)
}

// search is the exploration: breadth-first over every enabled choice at
// every state, less the injections a state's sleep set covers, so the
// first violation found has a shortest trace. Sleep sets are computed
// only under Config.POR (por.go); without it every set is empty, so
// every enabled choice is expanded and a state is expanded once.
func search(cfg Config, maxStates int, res *Result) error {
	var com commuting
	if cfg.POR {
		com = newCommuting(cfg)
	}
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
	visited := map[string]opSet{string(key): {}}
	res.States = 1
	res.noteQuiescent(w, key)
	frontier := []node{{}}
	path := newPath(w)
	var choices []Choice // the expanded state's, reused across states

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		parent, err := path.at(cur.trace)
		if err != nil {
			return err
		}
		choices = parent.choices(choices[:0])
		last := -1 // the last choice expanded
		for i, c := range choices {
			if !cur.slept(c) {
				last = i
			}
		}
		depth := len(cur.trace) + 1
		var prior opSet // injections expanded at this state so far
		for i, c := range choices {
			if cur.slept(c) {
				res.SleptTransitions++
				continue
			}
			cw, err := path.successor(parent, i == last)
			if err != nil {
				return err
			}
			var sleep opSet
			if cfg.POR {
				sleep = com.succSleep(cur.sleep, prior, cw.scopeOf(c))
				if !c.Step {
					prior.add(c.Op)
				}
			}
			cw.apply(c)
			res.Transitions++
			if depth > res.MaxDepth {
				res.MaxDepth = depth
			}
			if inv, detail := cw.invariantViolation(); inv != "" {
				res.Violation = &Violation{Invariant: inv, Detail: detail, Trace: extend(cur.trace, c)}
				return nil
			}
			key = cw.fingerprint(key[:0])
			old, seen := visited[string(key)]
			switch {
			case seen && old.subset(sleep):
				// The earlier expansion explored at least as much. With
				// empty sleep sets this is every revisit.
			case seen:
				// The earlier expansion slept orderings this path needs:
				// re-expand with the intersection (never larger than
				// either set, so repeated merges reach a fixpoint).
				merged := old.and(sleep)
				visited[string(key)] = merged
				frontier = append(frontier, node{trace: extend(cur.trace, c), sleep: merged})
			case res.States >= uint64(maxStates):
				res.Bounded = true
			default:
				visited[string(key)] = sleep
				res.States++
				res.noteQuiescent(cw, key)
				frontier = append(frontier, node{trace: extend(cur.trace, c), sleep: sleep})
			}
			path.free(cw)
		}
	}
	return nil
}

// slept reports whether n's sleep set covers choice c.
func (n *node) slept(c Choice) bool { return !c.Step && n.sleep.has(c.Op) }

// extend returns a new trace: trace followed by c.
func extend(trace []Choice, c Choice) []Choice {
	return append(append(make([]Choice, 0, len(trace)+1), trace...), c)
}

// path is the fork stack: the worlds of frontier nodes materialized along
// the last trace, each with its depth (the length of the trace prefix it
// is the state after), the initial world at depth 0 at the bottom.
// Exploration materializes a frontier node's state by forking, once, the
// deepest stacked world within the prefix the node's trace shares with the
// last one, and applying the rest of the trace to that copy in place.
// Breadth-first order emits each level in trace order, so consecutive
// nodes are mostly siblings or cousins and the suffix is short; the stack
// never holds more than MaxDepth+1 worlds. Dead worlds (popped from the
// stack, or successors once explored) are kept as spares whose storage
// the next copy reuses, so forking allocates nothing once a run is warm.
type path struct {
	stack []stacked
	trace []Choice // the trace of the top world
	spare []*world
}

// stacked is one world on the fork stack: the state after depth choices
// of the stack's trace.
type stacked struct {
	w     *world
	depth int
}

// newPath starts a stack at the initial world.
func newPath(w *world) *path { return &path{stack: []stacked{{w: w}}} }

// at returns the world trace reaches. The world belongs to the stack:
// explore its successors through successor, never apply to it directly.
func (p *path) at(trace []Choice) (*world, error) {
	k := 0
	for k < len(p.trace) && k < len(trace) && p.trace[k] == trace[k] {
		k++
	}
	n := len(p.stack)
	for n > 1 && p.stack[n-1].depth > k {
		n--
		p.free(p.stack[n].w)
	}
	p.stack = p.stack[:n]
	top := p.stack[n-1]
	p.trace = append(p.trace[:top.depth], trace[top.depth:]...)
	if top.depth == len(trace) {
		return top.w, nil
	}
	w, err := p.fork(top.w)
	if err != nil {
		return nil, err
	}
	for _, c := range trace[top.depth:] {
		w.apply(c)
	}
	p.stack = append(p.stack, stacked{w: w, depth: len(trace)})
	return w, nil
}

// successor returns a world to apply one of top's choices to, where top
// is the world at just returned. Normally that is a copy; for the last
// choice of an expansion (last set) it is top itself, popped from the
// stack: breadth-first order never comes back to a state below the one
// it is expanding, so its last successor may take it over. The initial
// world is never taken.
func (p *path) successor(top *world, last bool) (*world, error) {
	if n := len(p.stack); last && n > 1 && p.stack[n-1].w == top {
		p.stack = p.stack[:n-1]
		p.trace = p.trace[:p.stack[n-2].depth]
		return top, nil
	}
	return p.fork(top)
}

// fork copies w into a spare world.
func (p *path) fork(w *world) (*world, error) {
	var dst *world
	if n := len(p.spare); n > 0 {
		dst = p.spare[n-1]
		p.spare = p.spare[:n-1]
	}
	return w.clone(dst)
}

// free keeps a dead world as a spare; nothing may use it afterwards.
func (p *path) free(w *world) { p.spare = append(p.spare, w) }

// noteQuiescent updates the quiescent-state accounting for a newly
// visited state.
func (r *Result) noteQuiescent(w *world, key []byte) {
	if w.engine.Pending() != 0 {
		return
	}
	r.Quiescent++
	if r.quiescentSet != nil {
		r.quiescentSet[string(key)] = struct{}{}
	}
}

// validate rejects configurations the checker cannot exhaust.
func validate(cfg Config) error {
	if err := cfg.Spec.Validate(); err != nil {
		return err
	}
	if cfg.Nodes < 2 || cfg.Nodes > maxNodes {
		return fmt.Errorf("mc: %d nodes; exhaustive checking needs 2..%d", cfg.Nodes, maxNodes)
	}
	if cfg.Blocks < 1 || cfg.Blocks > maxBlocks {
		return fmt.Errorf("mc: %d blocks; exhaustive checking needs 1..%d", cfg.Blocks, maxBlocks)
	}
	if cfg.MaxOps < 1 {
		return fmt.Errorf("mc: operation budget %d; need at least 1", cfg.MaxOps)
	}
	if cfg.MaxStates < 0 {
		return fmt.Errorf("mc: state bound %d; need 0 (the default) or more", cfg.MaxStates)
	}
	if cfg.Fault.Nth < 0 {
		return fmt.Errorf("mc: fault drops message %d; need 0 (disarmed) or more", cfg.Fault.Nth)
	}
	seen := make(map[Action]bool)
	for _, a := range cfg.Actions {
		if a < 0 || a >= numActions {
			return fmt.Errorf("mc: unknown action %d in alphabet", int(a))
		}
		if seen[a] {
			return fmt.Errorf("mc: duplicate action %s in alphabet", a)
		}
		seen[a] = true
	}
	if cfg.Actions != nil && len(cfg.Actions) == 0 {
		return fmt.Errorf("mc: empty action alphabet")
	}
	if len(cfg.Overrides) > cfg.Blocks {
		return fmt.Errorf("mc: %d overrides for %d blocks", len(cfg.Overrides), cfg.Blocks)
	}
	return nil
}

// DefaultActions returns the alphabet a nil Config.Actions selects, in
// canonical order: every action except ActWatch.
func DefaultActions() []Action {
	acts := make([]Action, 0, ActWatch)
	for a := ActRead; a < ActWatch; a++ {
		acts = append(acts, a)
	}
	return acts
}

// alphabet resolves the run's action alphabet in canonical Action order.
func (cfg Config) alphabet() []Action {
	if cfg.Actions == nil {
		return DefaultActions()
	}
	var acts []Action
	for a := ActRead; a < numActions; a++ {
		if slices.Contains(cfg.Actions, a) {
			acts = append(acts, a)
		}
	}
	return acts
}

// blockSpec returns the protocol governing tracked block i: its override
// when one is configured, the machine Spec otherwise.
func (cfg Config) blockSpec(i int) proto.Spec {
	if i < len(cfg.Overrides) && cfg.Overrides[i].Name != "" {
		return cfg.Overrides[i]
	}
	return cfg.Spec
}
