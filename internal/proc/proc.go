// Package proc models the Sparcle processor of each node: an in-order
// processor executing application threads, issuing memory operations
// through the cache controller, fetching instructions through the combined
// cache, and sharing its cycles with the protocol extension handlers that
// trap onto it.
//
// Application threads are ordinary Go functions run as iter.Pull
// coroutines in lockstep with the simulation: a thread suspends after
// issuing each operation and resumes only when the simulator delivers its
// result. A coroutine switch is a direct handoff, not a scheduling
// decision, and the simulator core starts no goroutines, so the Go
// scheduler can never perturb simulated time. The simulator and the
// threads alternate strictly; runs are deterministic.
//
// A node normally runs one thread, as in all of the paper's experiments.
// Sparcle also provides multiple hardware contexts for latency tolerance
// (block multithreading: switch contexts on a remote miss); StartThreads
// models that by running several lockstep threads per node, each paying a
// context-switch cost when its memory operation completes.
package proc

import (
	"fmt"

	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/trace"
)

// opKind enumerates the operations a thread can issue.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opRMW
	opCompute
	opWatch
	opCheckIn
	opCheckOut
)

type request struct {
	kind   opKind
	addr   mem.Addr
	value  uint64
	cycles sim.Cycle
	rmw    proto.RMW
	old    uint64
}

// ContextSwitchCycles is the cost of switching hardware contexts when a
// multithreaded node's thread misses (Sparcle's fast context switch takes
// about 14 cycles).
const ContextSwitchCycles = 14

// thread is one hardware context's execution state.
type thread struct {
	node *Node
	idx  int
	done bool
	fin  sim.Cycle

	// The coroutine (see coro.go): pull resumes the thread until it
	// issues its next operation or returns, stop unwinds a suspended
	// thread, yield is the thread-side suspension point, and result
	// carries the reply from reply to the suspended do. stopping marks a
	// thread unwinding after stop.
	pull     func() (request, bool)
	stop     func()
	yield    func(request) bool
	result   uint64
	stopping bool

	// Instruction fetch state: the current code region the thread
	// executes from, advanced one block per operation.
	codeBase   mem.Addr
	codeBlocks int
	codePos    int

	// Preallocated continuations for the per-operation path. The
	// lockstep alternation guarantees at most one outstanding operation
	// per thread, so one set of event receivers (and the pending request
	// and result they read) is reused for every operation.
	pending    request // the operation currently executing
	pendingVal uint64  // result the reply event resumes the thread with
	nextEv     threadEvent
	issueEv    threadEvent
	executeEv  threadEvent
	replyEv    threadEvent
}

// step names one of a thread's scheduled continuations.
type step uint8

const (
	// stepNext resumes the thread to its next operation.
	stepNext step = iota
	// stepIssue follows the instruction fetch: the operation issues one
	// cycle later.
	stepIssue
	// stepExecute performs the pending operation.
	stepExecute
	// stepReply resumes the thread with pendingVal.
	stepReply
)

// threadEvent is the event receiver (sim.Caller) of one of a thread's
// continuations.
type threadEvent struct {
	t    *thread
	step step
}

// Fire runs the continuation.
func (ev *threadEvent) Fire() {
	t := ev.t
	switch ev.step {
	case stepNext:
		t.next()
	case stepIssue:
		t.node.f.Engine.OwnedAfterCall(int(t.node.ID), 1, nil, &t.executeEv)
	case stepExecute:
		t.execute(t.pending)
	case stepReply:
		t.reply(t.pendingVal)
	default:
		panic("proc: unknown thread step")
	}
}

// complete resumes the thread whose memory, watch or check-out operation
// committed with value v.
func (t *thread) complete(v uint64) {
	switch t.pending.kind {
	case opWatch, opCheckOut:
		t.reply(v)
	case opRead, opWrite, opRMW:
		t.memDone(v)
	case opCompute, opCheckIn:
		panic("proc: completion for a local operation")
	default:
		panic("proc: unknown op kind")
	}
}

// completions resolves a fabric's operation completions to the issuing
// thread: an operation's ID is its thread's index on the node.
type completions struct {
	nodes []*Node
}

// Complete implements proto.Completer.
func (c *completions) Complete(node mem.NodeID, id uint64, v uint64) {
	c.nodes[node].threads[id].complete(v)
}

// Node is one processor: the execution engine for its application threads
// plus its connection to the memory system.
type Node struct {
	ID      mem.NodeID
	f       *proto.Fabric
	threads []*thread

	// Ops counts operations executed; MemOps counts reads/writes/RMWs.
	Ops    uint64
	MemOps uint64
}

// NewNode builds the processor for node id on the given fabric and
// registers it to receive its threads' operation completions: the
// processors of one fabric share its Completer.
func NewNode(f *proto.Fabric, id mem.NodeID) *Node {
	n := &Node{ID: id, f: f}
	c, ok := f.Completer.(*completions)
	if !ok {
		if f.Completer != nil {
			panic(fmt.Sprintf("proc: fabric already completes to %T", f.Completer))
		}
		c = &completions{}
		f.Completer = c
	}
	for len(c.nodes) <= int(id) {
		c.nodes = append(c.nodes, nil)
	}
	c.nodes[id] = n
	return n
}

// Start launches fn as this node's (single) thread. The simulation must be
// driven by the fabric's engine after all nodes have started.
func (n *Node) Start(fn func(*Env)) { n.StartThreads(1, fn) }

// StartThreads launches count hardware contexts, each running fn as an
// iter.Pull coroutine. With more than one context the node tolerates
// memory latency by overlapping threads' misses, at a context-switch cost
// per memory operation. No goroutine starts: each thread first runs when
// the engine fires its initial next event, and from then on it runs only
// between that event's pull and its next operation.
func (n *Node) StartThreads(count int, fn func(*Env)) {
	if len(n.threads) > 0 {
		panic(fmt.Sprintf("proc: node %d started twice", n.ID))
	}
	if count < 1 {
		count = 1
	}
	for i := 0; i < count; i++ {
		t := &thread{node: n, idx: i}
		t.nextEv = threadEvent{t, stepNext}
		t.issueEv = threadEvent{t, stepIssue}
		t.executeEv = threadEvent{t, stepExecute}
		t.replyEv = threadEvent{t, stepReply}
		n.threads = append(n.threads, t)
		t.start(fn, &Env{thread: t, P: n.f.Nodes()})
		eng := n.f.Engine
		eng.OwnedAtCall(int(n.ID), eng.Now(), nil, &t.nextEv)
	}
}

// Stop unwinds every thread that has not finished, releasing its
// coroutine. A run that ends early (deadlock or cycle limit) calls it;
// stopping a finished thread is a no-op.
func (n *Node) Stop() {
	for _, t := range n.threads {
		t.stop()
	}
}

// Threads reports how many contexts the node runs.
func (n *Node) Threads() int { return len(n.threads) }

// Done reports whether every thread has finished.
func (n *Node) Done() bool {
	for _, t := range n.threads {
		if !t.done {
			return false
		}
	}
	return len(n.threads) > 0
}

// FinishedAt reports the cycle the last thread completed (valid once Done).
func (n *Node) FinishedAt() sim.Cycle {
	var fin sim.Cycle
	for _, t := range n.threads {
		if t.fin > fin {
			fin = t.fin
		}
	}
	return fin
}

// next resumes the thread until it issues its next operation or returns;
// this handoff is the lockstep that keeps runs deterministic.
func (t *thread) next() {
	r, ok := t.pull()
	if !ok {
		t.done = true
		t.fin = t.node.f.Engine.Now()
		return
	}
	t.node.Ops++
	t.pending = r
	// Every operation begins with an instruction fetch from the current
	// code region (one block per operation, round-robin), then costs at
	// least one issue cycle. Perfect-ifetch configurations make the
	// fetch free.
	if t.codeBlocks > 0 {
		pc := t.codeBase + mem.Addr(t.codePos)*mem.WordsPerBlock
		t.codePos = (t.codePos + 1) % t.codeBlocks
		t.node.f.Cache(t.node.ID).Ifetch(pc, &t.issueEv)
		return
	}
	t.node.f.Engine.OwnedAfterCall(int(t.node.ID), 1, nil, &t.executeEv)
}

// execute performs one operation and schedules the reply.
func (t *thread) execute(r request) {
	n := t.node
	id := uint64(t.idx)
	switch r.kind {
	case opRead:
		n.MemOps++
		n.f.Cache(n.ID).Access(r.addr, proto.Op{ID: id})
	case opWrite:
		n.MemOps++
		n.f.Cache(n.ID).Access(r.addr, proto.Op{Write: true, Value: r.value, ID: id})
	case opRMW:
		n.MemOps++
		n.f.Cache(n.ID).Access(r.addr, proto.Op{Write: true, RMW: r.rmw, ID: id})
	case opCompute:
		done := n.f.Traps.Reserve(n.ID, r.cycles)
		if n.f.Sink != nil {
			n.f.Sink.Emit(trace.Event{
				Start: done - r.cycles, End: done,
				Arg: int64(r.cycles), Node: int32(n.ID), Peer: -1,
				Cat: trace.CatProc, Op: trace.OpCompute, Name: "compute",
			})
		}
		t.pendingVal = 0
		n.f.Engine.OwnedAtCall(int(n.ID), done, nil, &t.replyEv)
	case opWatch:
		n.f.Cache(n.ID).Watch(r.addr, r.old, proto.Op{ID: id})
	case opCheckIn:
		n.f.Cache(n.ID).CheckIn(r.addr)
		t.reply(0)
	case opCheckOut:
		n.f.Cache(n.ID).CheckOut(r.addr, proto.Op{ID: id})
	default:
		panic(fmt.Sprintf("proc: unknown op kind %d", r.kind))
	}
}

// memDone completes a memory operation. A multithreaded node pays the
// context-switch cost to resume the issuing thread (block multithreading
// switches away on every miss); a single-context node resumes directly.
func (t *thread) memDone(v uint64) {
	if len(t.node.threads) > 1 {
		t.pendingVal = v
		t.node.f.Engine.OwnedAfterCall(int(t.node.ID), ContextSwitchCycles, nil, &t.replyEv)
		return
	}
	t.reply(v)
}

// reply resumes the thread with a result and fetches its next operation.
func (t *thread) reply(v uint64) {
	t.result = v
	t.next()
}

// Env is the shared-memory programming interface a thread sees: the
// analog of compiled Sparcle code making loads, stores, and run-time calls.
type Env struct {
	thread *thread
	// P is the machine size.
	P int
}

// ID returns the node this thread runs on.
func (e *Env) ID() mem.NodeID { return e.thread.node.ID }

// Thread returns the hardware context index within the node (0 for the
// paper's single-threaded configurations).
func (e *Env) Thread() int { return e.thread.idx }

// NodeThreads returns how many hardware contexts this thread's node runs.
// Observation capture uses it to give every context in the machine a
// distinct dense index (node*NodeThreads+Thread) without threading the
// machine configuration through to application code.
func (e *Env) NodeThreads() int { return len(e.thread.node.threads) }

// Read loads the word at a.
func (e *Env) Read(a mem.Addr) uint64 {
	return e.do(request{kind: opRead, addr: a})
}

// Write stores v at a.
func (e *Env) Write(a mem.Addr, v uint64) {
	e.do(request{kind: opWrite, addr: a, value: v})
}

// RMW atomically applies op to the word at a, returning the old value.
func (e *Env) RMW(a mem.Addr, op proto.RMW) uint64 {
	return e.do(request{kind: opRMW, addr: a, rmw: op})
}

// FetchAdd atomically adds delta and returns the previous value.
func (e *Env) FetchAdd(a mem.Addr, delta uint64) uint64 {
	return e.RMW(a, proto.RMW{Kind: proto.RMWAdd, Arg: delta})
}

// Compute consumes cycles of processor time (the thread's local work
// between memory references).
func (e *Env) Compute(cycles sim.Cycle) {
	if cycles == 0 {
		return
	}
	e.do(request{kind: opCompute, cycles: cycles})
}

// WaitChange blocks until the word at a differs from old, returning the
// new value. It models a spin-wait loop: each invalidation of the block
// re-fetches and re-checks, generating the same coherence traffic as
// spinning, without simulating every iteration.
func (e *Env) WaitChange(a mem.Addr, old uint64) uint64 {
	return e.do(request{kind: opWatch, addr: a, old: old})
}

// CheckIn relinquishes this node's cached copy of the block containing a
// — the CICO "check-in" annotation (paper Sections 1 and 7): a programmer
// hint that the data will not be reused here, letting the directory retire
// the pointer before the next writer has to invalidate it.
func (e *Env) CheckIn(a mem.Addr) {
	e.do(request{kind: opCheckIn, addr: a})
}

// CheckOut acquires exclusive ownership of the block containing a before
// use — the CICO "check-out" annotation: a read-modify-write sequence on a
// checked-out block costs one ownership transfer instead of a read recall
// plus an upgrade.
func (e *Env) CheckOut(a mem.Addr) {
	e.do(request{kind: opCheckOut, addr: a})
}

// SetCode selects the instruction region the thread is executing from:
// blocks cache lines starting at base. Each subsequent operation fetches
// one instruction block from the region in round-robin order through the
// combined I/D cache. A blocks count of zero disables instruction
// modeling. Takes effect on the next operation.
func (e *Env) SetCode(base mem.Addr, blocks int) {
	e.thread.codeBase = base
	e.thread.codeBlocks = blocks
	e.thread.codePos = 0
}

// CodeSpace is the base of the instruction address region: disjoint from
// every node's data segment (the highest data address is
// nodes*SegWords), so instruction blocks never alias shared data, while
// still mapping onto the same cache sets.
const CodeSpace mem.Addr = 1 << 40
