package litmus

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Verdict is the oracle's judgment of one run's observations.
type Verdict struct {
	// OK reports that some sequentially consistent total order explains
	// every observation.
	OK bool
	// Witness explains a failed verdict: the unsatisfiable constraint
	// cycle (constraint path) or a note that the interleaving search
	// was exhausted (exhaustive path). Empty when OK.
	Witness string
}

// exhaustiveLimit is the semantic-operation count up to which CheckSC
// prefers the exhaustive interleaving search; larger programs use the
// constraint checker, whose cost grows with events rather than
// interleavings. Each procedure wins on its own side of the limit, so
// CheckSC keeps both. On perfbench's litmus-campaign programs (2,271
// verdicts, none over 8 semantic operations) the search took 1.5 µs a
// verdict and allocated 1.3 MB in all, the constraint checker 6.0 µs and
// 4.9 MB. On 200 programs of 8 threads × 6 operations the search took
// 254 ms a verdict on average and 7.0 s at worst, the constraint checker
// 0.34 ms on average. (Go 1.24 on a 2-core linux/amd64 host.)
const exhaustiveLimit = 10

// maxEvents bounds the constraint checker's event count (initial writes
// plus semantic operations): reachability rows are single 64-bit masks.
const maxEvents = 64

// CheckSC decides whether the observations are sequentially consistent,
// picking the cheaper complete decision procedure for the program's size.
// Both procedures are exact — they accept exactly the SC-explainable
// observation sets — so the choice never changes the verdict, a property
// the package's fuzz test cross-validates.
func CheckSC(p Program, obs [][]uint64) (Verdict, error) {
	total := 0
	for _, ops := range p.Threads {
		for _, op := range ops {
			if op.Kind == OpRead || op.Kind == OpWrite || op.Kind == OpRMW {
				total++
			}
		}
	}
	if total <= exhaustiveLimit {
		return CheckExhaustive(p, obs)
	}
	return CheckConstraints(p, obs)
}

// semOp is one memory-semantics operation (fences and compute delays
// affect timing, never SC-explainability, and are dropped).
type semOp struct {
	kind OpKind
	v    int
	arg  uint64
	obs  uint64
}

// semantics validates the program and observation shapes and returns each
// thread's semantic operations with the values its reads and exchanges
// are claimed to have observed.
func semantics(p Program, obs [][]uint64) ([][]semOp, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(obs) != len(p.Threads) {
		return nil, fmt.Errorf("litmus: %d observation lists for %d threads", len(obs), len(p.Threads))
	}
	out := make([][]semOp, len(p.Threads))
	for t, ops := range p.Threads {
		k := 0
		for _, op := range ops {
			switch op.Kind {
			case OpRead, OpRMW:
				if k >= len(obs[t]) {
					return nil, fmt.Errorf("litmus: thread %d logged %d values but the program observes %d times", t, len(obs[t]), p.ObsCount(t))
				}
				out[t] = append(out[t], semOp{kind: op.Kind, v: op.Var, arg: op.Arg, obs: obs[t][k]})
				k++
			case OpWrite:
				out[t] = append(out[t], semOp{kind: OpWrite, v: op.Var, arg: op.Arg})
			case OpFence, OpCompute:
				// No memory semantics: fences are vacuous under SC and
				// compute delays only shift timing.
			default:
				panic("litmus: unknown operation kind")
			}
		}
		if k != len(obs[t]) {
			return nil, fmt.Errorf("litmus: thread %d logged %d values but the program observes %d times", t, len(obs[t]), k)
		}
	}
	return out, nil
}

// CheckExhaustive decides SC-explainability by depth-first search over
// thread interleavings, memoizing dead states (per-thread progress plus
// memory contents), so each reachable state is expanded once. Exact for
// any program, practical for small ones.
func CheckExhaustive(p Program, obs [][]uint64) (Verdict, error) {
	sem, err := semantics(p, obs)
	if err != nil {
		return Verdict{}, err
	}
	T := len(sem)
	pcs := make([]int, T)
	memv := make([]uint64, p.Vars)
	dead := make(map[string]bool)
	keyBuf := make([]byte, 0, 64)
	key := func() string {
		keyBuf = keyBuf[:0]
		for _, pc := range pcs {
			keyBuf = append(keyBuf, byte(pc))
		}
		for _, m := range memv {
			keyBuf = strconv.AppendUint(keyBuf, m, 10)
			keyBuf = append(keyBuf, ',')
		}
		return string(keyBuf)
	}
	var dfs func() bool
	dfs = func() bool {
		done := true
		for t := 0; t < T; t++ {
			if pcs[t] < len(sem[t]) {
				done = false
				break
			}
		}
		if done {
			return true
		}
		k := key()
		if dead[k] {
			return false
		}
		for t := 0; t < T; t++ {
			if pcs[t] >= len(sem[t]) {
				continue
			}
			op := sem[t][pcs[t]]
			old := memv[op.v]
			switch op.kind {
			case OpRead:
				if old != op.obs {
					continue
				}
			case OpRMW:
				if old != op.obs {
					continue
				}
				memv[op.v] = op.arg
			case OpWrite:
				memv[op.v] = op.arg
			case OpFence, OpCompute:
				panic("litmus: non-semantic op in interleaving search")
			default:
				panic("litmus: unknown operation kind")
			}
			pcs[t]++
			if dfs() {
				return true
			}
			pcs[t]--
			memv[op.v] = old
		}
		dead[k] = true
		return false
	}
	if dfs() {
		return Verdict{OK: true}, nil
	}
	return Verdict{Witness: "exhaustive interleaving search: no sequentially consistent total order explains the observations"}, nil
}

// cev is one event of the constraint checker: a read, write, or exchange
// (which is both), or a variable's virtual initial write (t == -1).
type cev struct {
	t, i int
	kind OpKind
	v    int
	val  uint64
	obs  uint64
	rf   int
}

// CheckConstraints decides SC-explainability by constraint propagation
// over a happens-before graph. Reads-from edges are derived from the
// program's unique write values; program order, reads-from, per-location
// coherence order, and from-read edges are then saturated to a fixpoint
// (a cycle is a violation with a printable witness), and any same-location
// write pairs the constraints leave unordered are completed by
// backtracking — so the procedure is exact: observations pass if and only
// if po ∪ rf ∪ ws ∪ fr is acyclic for some per-location write order,
// the classical characterization of sequential consistency.
func CheckConstraints(p Program, obs [][]uint64) (Verdict, error) {
	sem, err := semantics(p, obs)
	if err != nil {
		return Verdict{}, err
	}
	n := p.Vars
	for _, ops := range sem {
		n += len(ops)
	}
	if n > maxEvents {
		return Verdict{}, fmt.Errorf("litmus: %d events exceed the constraint checker's %d-event bound", n, maxEvents)
	}

	// Events 0..Vars-1 are the initial writes; thread events follow,
	// contiguous per thread.
	evs := make([]cev, 0, n)
	for v := 0; v < p.Vars; v++ {
		evs = append(evs, cev{t: -1, i: -1, kind: OpWrite, v: v, rf: -1})
	}
	writerOf := make(map[uint64]int)
	firstOf := make([]int, len(sem))
	for t, ops := range sem {
		firstOf[t] = -1
		for i, op := range ops {
			id := len(evs)
			if i == 0 {
				firstOf[t] = id
			}
			evs = append(evs, cev{t: t, i: i, kind: op.kind, v: op.v, val: op.arg, obs: op.obs, rf: -1})
			if op.kind != OpRead {
				writerOf[op.arg] = id
			}
		}
	}

	// Resolve reads-from: zero is the initial value (no program write is
	// zero), any other value names its unique writer.
	for id := range evs {
		e := &evs[id]
		if e.t < 0 || e.kind == OpWrite {
			continue
		}
		if e.obs == 0 {
			e.rf = e.v
			continue
		}
		w, ok := writerOf[e.obs]
		if !ok || evs[w].v != e.v {
			return Verdict{Witness: fmt.Sprintf("%s observed value %d, which no write to v%d produced (out-of-thin-air or cross-variable value)", evName(evs[id]), e.obs, e.v)}, nil
		}
		if w == id {
			return Verdict{Witness: fmt.Sprintf("%s observed the value it wrote itself", evName(evs[id]))}, nil
		}
		e.rf = w
	}

	adj := make([]uint64, len(evs))
	kind := make(map[[2]int]string)
	addEdge := func(adj []uint64, a, b int, k string) bool {
		if adj[a]&(1<<uint(b)) != 0 {
			return false
		}
		adj[a] |= 1 << uint(b)
		if _, ok := kind[[2]int{a, b}]; !ok {
			kind[[2]int{a, b}] = k
		}
		return true
	}
	for id, e := range evs {
		if e.t >= 0 && e.i > 0 {
			addEdge(adj, id-1, id, "po")
		}
		if e.rf >= 0 {
			addEdge(adj, e.rf, id, "rf")
		}
	}
	for v := 0; v < p.Vars; v++ {
		for _, f := range firstOf {
			if f >= 0 && f != v {
				addEdge(adj, v, f, "init")
			}
		}
	}

	closure := func(adj []uint64) []uint64 {
		r := make([]uint64, len(adj))
		copy(r, adj)
		for changed := true; changed; {
			changed = false
			for i := range r {
				row := r[i]
				for m := row; m != 0; {
					j := bits.TrailingZeros64(m)
					m &^= 1 << uint(j)
					if nr := row | r[j]; nr != row {
						row = nr
						changed = true
					}
				}
				r[i] = row
			}
		}
		return r
	}

	// saturate derives coherence (ws) and from-read (fr) edges to a
	// fixpoint: a write that happens-before a read must be
	// coherence-before the write the read observed, and a read
	// happens-before every same-location write that is coherence-after
	// its source. Exchanges, being reads and writes at once, get their
	// atomicity (no write between source and exchange) from the same two
	// rules. Returns the reachability closure and whether it is cyclic.
	saturate := func(adj []uint64) ([]uint64, bool) {
		for {
			reach := closure(adj)
			for i := range reach {
				if reach[i]&(1<<uint(i)) != 0 {
					return reach, true
				}
			}
			changed := false
			for id, e := range evs {
				if e.rf < 0 {
					continue
				}
				w := e.rf
				for w2, e2 := range evs {
					if e2.v != e.v || e2.kind == OpRead || w2 == w || w2 == id {
						continue
					}
					if reach[w2]&(1<<uint(id)) != 0 && reach[w2]&(1<<uint(w)) == 0 {
						if addEdge(adj, w2, w, "ws") {
							changed = true
						}
					}
					if reach[w]&(1<<uint(w2)) != 0 && reach[id]&(1<<uint(w2)) == 0 {
						if addEdge(adj, id, w2, "fr") {
							changed = true
						}
					}
				}
			}
			if !changed {
				return reach, false
			}
		}
	}

	reach, cyclic := saturate(adj)
	if cyclic {
		return Verdict{Witness: cycleWitness(evs, adj, reach, kind)}, nil
	}

	// Completion: order same-location write pairs the constraints left
	// free, backtracking on induced cycles. Only pairs with at least one
	// observed member matter — a write no read observed (never an rf
	// source, not an exchange) generates no from-read edges, so once
	// every observed pair is ordered acyclically, any topological order
	// of the rest completes the coherence order without perturbing a
	// read: an intervening write between a read's source and the read
	// would itself form an observed pair, already ordered to one side.
	// Restricting the branching this way keeps the search polynomial on
	// the common fuzzing case of many unobserved writes.
	observed := make([]bool, len(evs))
	for _, e := range evs {
		if e.rf >= 0 {
			observed[e.rf] = true
		}
	}
	for id, e := range evs {
		if e.kind == OpRMW {
			observed[id] = true
		}
	}
	var solve func(adj []uint64) bool
	solve = func(adj []uint64) bool {
		reach, cyclic := saturate(adj)
		if cyclic {
			return false
		}
		for a := 0; a < len(evs); a++ {
			if evs[a].kind == OpRead {
				continue
			}
			for b := a + 1; b < len(evs); b++ {
				if evs[b].kind == OpRead || evs[b].v != evs[a].v {
					continue
				}
				if !observed[a] && !observed[b] {
					continue
				}
				if reach[a]&(1<<uint(b)) != 0 || reach[b]&(1<<uint(a)) != 0 {
					continue
				}
				adj1 := append([]uint64(nil), adj...)
				addEdge(adj1, a, b, "ws")
				if solve(adj1) {
					return true
				}
				adj2 := append([]uint64(nil), adj...)
				addEdge(adj2, b, a, "ws")
				return solve(adj2)
			}
		}
		return true
	}
	if !solve(append([]uint64(nil), adj...)) {
		return Verdict{Witness: "constraint completion: every per-location write order creates a happens-before cycle"}, nil
	}
	return Verdict{OK: true}, nil
}

// cycleWitness renders one cycle of the saturated constraint graph as a
// chain of events and edge kinds: a breadth-first search from a cyclic
// event back to itself, preferring real thread events over the virtual
// initial writes so the witness shows the program-order and reads-from
// chain rather than a degenerate two-edge detour through an init event.
func cycleWitness(evs []cev, adj, reach []uint64, kind map[[2]int]string) string {
	start := -1
	for i := range reach {
		if reach[i]&(1<<uint(i)) != 0 && evs[i].t >= 0 {
			start = i
			break
		}
	}
	if start < 0 {
		for i := range reach {
			if reach[i]&(1<<uint(i)) != 0 {
				start = i
				break
			}
		}
	}
	if start < 0 {
		return ""
	}
	// Two BFS passes: first through thread events only, then through
	// everything. BFS visits each event once, so it always terminates,
	// and the first closed walk found is a shortest cycle through start.
	for pass := 0; pass < 2; pass++ {
		prev := make([]int, len(evs))
		for i := range prev {
			prev[i] = -2
		}
		prev[start] = -1
		queue := []int{start}
		closer := -1
		for len(queue) > 0 && closer < 0 {
			cur := queue[0]
			queue = queue[1:]
			for j := 0; j < len(evs) && closer < 0; j++ {
				if adj[cur]&(1<<uint(j)) == 0 {
					continue
				}
				if j == start {
					closer = cur
					break
				}
				if pass == 0 && evs[j].t < 0 {
					continue
				}
				if prev[j] == -2 {
					prev[j] = cur
					queue = append(queue, j)
				}
			}
		}
		if closer < 0 {
			continue
		}
		var path []int
		for cur := closer; cur != -1; cur = prev[cur] {
			path = append(path, cur)
		}
		var b strings.Builder
		b.WriteString("unsatisfiable constraint cycle: ")
		for i := len(path) - 1; i >= 0; i-- {
			next := start
			if i > 0 {
				next = path[i-1]
			}
			b.WriteString(evName(evs[path[i]]))
			fmt.Fprintf(&b, " -%s-> ", kind[[2]int{path[i], next}])
		}
		b.WriteString(evName(evs[start]))
		return b.String()
	}
	return "unsatisfiable happens-before constraints (cycle rendering failed)"
}

// evName renders one constraint event for witnesses.
func evName(e cev) string {
	if e.t < 0 {
		return fmt.Sprintf("init(v%d=0)", e.v)
	}
	switch e.kind {
	case OpRead:
		return fmt.Sprintf("t%d#%d:R(v%d)=%d", e.t, e.i, e.v, e.obs)
	case OpRMW:
		return fmt.Sprintf("t%d#%d:X(v%d,%d)=%d", e.t, e.i, e.v, e.val, e.obs)
	case OpWrite:
		return fmt.Sprintf("t%d#%d:W(v%d)=%d", e.t, e.i, e.v, e.val)
	case OpFence, OpCompute:
		panic("litmus: non-semantic op in constraint event")
	default:
		panic("litmus: unknown operation kind")
	}
}
