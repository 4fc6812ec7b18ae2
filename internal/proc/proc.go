// Package proc models the Sparcle processor of each node: an in-order
// processor executing application threads, issuing memory operations
// through the cache controller, fetching instructions through the combined
// cache, and sharing its cycles with the protocol extension handlers that
// trap onto it.
//
// Application threads are ordinary Go functions run as iter.Pull
// coroutines in lockstep with the simulation. An operation whose result
// the thread does not read (Write, Compute, CheckIn, CheckOut) is posted:
// it joins a small per-thread queue and the thread runs on. A thread
// suspends only at an operation that returns a value (Read, RMW,
// WaitChange), when its queue is full, or when it returns; the simulator
// then executes the queued operations in program order, each at the cycle
// it would have issued had the thread suspended after every operation, and
// resumes the thread once the last one completes. A coroutine switch is a
// direct handoff, not a scheduling decision, and the simulator core starts
// no goroutines, so the Go scheduler can never perturb simulated time. The
// simulator and the threads alternate strictly; runs are deterministic.
//
// A thread of a small machine (at most 16 threads) that finishes is
// recycled whole, coroutine included, into a process-wide pool that later
// StartThreads calls on any machine draw from, so a warm start allocates
// nothing. A reused thread behaves exactly as a new one; a thread stopped
// after a failed run is never reused.
//
// A thread sees the simulation only through the values its operations
// return: simulator state read from inside a thread body (the engine's
// clock, a cache's contents) is the state at the thread's last suspension,
// which may precede operations the thread has already posted.
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
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opRMW
	opCompute
	opWatch
	opCheckIn
	opCheckOut
)

// request is one queued operation. arg carries whichever operand the kind
// takes: the stored value (opWrite), the cycle count (opCompute), the RMW
// argument (opRMW) or the watched old value (opWatch). pc is the
// instruction block the operation fetches first, stamped when the thread
// queues it, so a SetCode between two posted operations applies to the
// later one only.
type request struct {
	addr  mem.Addr
	arg   uint64
	pc    mem.Addr
	kind  opKind
	rmw   proto.RMWKind
	fetch bool
}

// queueLen is the capacity of a thread's operation queue. A thread
// suspends once it has queued queueLen operations, so a value-returning
// operation always finds a slot. Longer queues save few handoffs: the
// 256-node TSP run's 479,890 operations take 480,146 handoffs (one per
// operation plus each thread's return) with one slot, 311,113 with two,
// 308,995 with four and 308,350 with 64. Two slots keep a thread at 240
// bytes.
const queueLen = 2

// ContextSwitchCycles is the cost of switching hardware contexts when a
// multithreaded node's thread misses (Sparcle's fast context switch takes
// about 14 cycles).
const ContextSwitchCycles = 14

// MaxContexts is the number of hardware contexts a Sparcle processor
// provides, the most threads StartThreads runs on one node.
const MaxContexts = 4

// thread is one hardware context's execution state. A finished thread is
// recycled whole (see coro.go): its per-run state is emptied, and the
// record, its continuations, its Env and its coroutine serve a later
// StartThreads on any node.
type thread struct {
	threadRun

	// The coroutine (see coro.go): pull resumes the thread until it
	// suspends or its body returns, stop unwinds a suspended thread, and
	// yield is the thread-side suspension point. h is the pool's handle,
	// held while the thread is in use.
	pull  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	h     *threadHandle

	// env is the body's view of the thread; env.thread points back here.
	env Env

	// Preallocated continuations for the per-operation path. A thread
	// executes its queued operations one at a time, so one set of event
	// receivers is reused for every operation.
	nextEv    threadEvent
	issueEv   threadEvent
	executeEv threadEvent
	replyEv   threadEvent
}

// threadRun is the state of one run of a thread body; recycling a thread
// zeroes it.
type threadRun struct {
	node *Node
	idx  int
	body func(*Env)

	// result carries the last completed operation's value to the resumed
	// thread. stopping marks a thread unwinding after stop; returned marks
	// a body that has returned, whose queue still drains before the
	// thread finishes.
	result   uint64
	stopping bool
	returned bool

	// The operation queue: the thread fills ops[:n] while it runs; the
	// simulator issues them in order while it is suspended, and
	// ops[head-1] is the operation executing. The queue is empty again
	// (head == n) whenever the thread is resumed.
	head, n uint8
	ops     [queueLen]request

	// Instruction fetch state: the current code region the thread
	// executes from, advanced one block per operation as it is queued.
	codeBase   mem.Addr
	codeBlocks int
	codePos    int
}

// step names one of a thread's scheduled continuations.
type step uint8

const (
	// stepNext issues the thread's next operation.
	stepNext step = iota
	// stepIssue follows the instruction fetch: the operation issues one
	// cycle later.
	stepIssue
	// stepExecute performs the executing operation.
	stepExecute
	// stepReply follows a completion delivered late (Compute, a
	// context switch); it too issues the next operation.
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
	case stepNext, stepReply:
		t.next()
	case stepIssue:
		t.node.f.Engine.OwnedAfterCall(int(t.node.ID), 1, nil, &t.executeEv)
	case stepExecute:
		t.execute(&t.ops[t.head-1])
	default:
		panic("proc: unknown thread step")
	}
}

// complete resumes the thread whose memory, watch or check-out operation
// committed with value v.
func (t *thread) complete(v uint64) {
	switch t.ops[t.head-1].kind {
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
// thread: an operation's ID is its thread's index on the node. It also
// counts the threads started on the fabric's nodes, and those of them
// live: started and not yet finished.
type completions struct {
	nodes   []*Node
	started int
	live    int
}

// Complete implements proto.Completer.
func (c *completions) Complete(node mem.NodeID, id uint64, v uint64) {
	c.nodes[node].threads[id].complete(v)
}

// Node is one processor: the execution engine for its application threads
// plus its connection to the memory system.
type Node struct {
	ID mem.NodeID
	f  *proto.Fabric
	c  *completions

	// threads holds the started contexts, each until it finishes; count
	// is how many were started, unfinished how many have not finished,
	// and fin the cycle the last one finished.
	threads    [MaxContexts]*thread
	count      int
	unfinished int
	fin        sim.Cycle

	// Ops counts operations executed; MemOps counts reads/writes/RMWs.
	Ops    uint64
	MemOps uint64
}

// NewNode builds the processor for node id on the given fabric and
// registers it to receive its threads' operation completions: the
// processors of one fabric share its Completer.
func NewNode(f *proto.Fabric, id mem.NodeID) *Node {
	n := &Node{}
	n.Reset(f, id)
	return n
}

// Reset returns the processor in place to what NewNode(f, id) builds: no
// threads, zero statistics, registered on f. A fabric that Reset has
// emptied has no Completer; the first node reset on it installs the
// completion set that node used before, emptied. Threads still
// unfinished are dropped, not stopped: a run that ends early has stopped
// them already (Stop).
func (n *Node) Reset(f *proto.Fabric, id mem.NodeID) {
	c, ok := f.Completer.(*completions)
	if !ok {
		if f.Completer != nil {
			panic(fmt.Sprintf("proc: fabric already completes to %T", f.Completer))
		}
		c = n.c
		if c == nil {
			c = &completions{}
		}
		*c = completions{nodes: c.nodes[:0]}
		f.Completer = c
	}
	for len(c.nodes) <= int(id) {
		c.nodes = append(c.nodes, nil)
	}
	*n = Node{ID: id, f: f, c: c}
	c.nodes[id] = n
}

// Finished returns the stop condition of a run on fabric f: whether every
// thread started on f's nodes has finished. It reads a count the threads
// keep as they start and finish, so the engine can test it after every
// event without visiting the nodes. f must have nodes (NewNode).
func Finished(f *proto.Fabric) func() bool {
	c, ok := f.Completer.(*completions)
	if !ok {
		panic("proc: Finished on a fabric with no nodes")
	}
	return c.finished
}

// finished reports whether every started thread has finished.
func (c *completions) finished() bool { return c.live == 0 }

// Start launches fn as this node's (single) thread. The simulation must be
// driven by the fabric's engine after all nodes have started.
func (n *Node) Start(fn func(*Env)) { n.StartThreads(1, fn) }

// StartThreads launches count hardware contexts, 1..MaxContexts, each
// running fn as an iter.Pull coroutine. With more than one context the
// node tolerates memory latency by overlapping threads' misses, at a
// context-switch cost per memory operation. No goroutine starts: each
// thread first runs when the engine fires its initial next event, and
// from then on it runs only between that event's pull and its next
// suspension. A thread that finishes returns to a process-wide pool with
// its coroutine parked, when its fabric started at most 16 threads, and
// StartThreads takes its threads from that pool before it builds new
// ones, so a warm start allocates nothing; a thread taken from the pool
// behaves exactly as a new one.
func (n *Node) StartThreads(count int, fn func(*Env)) {
	if n.count > 0 {
		panic(fmt.Sprintf("proc: node %d started twice", n.ID))
	}
	if count < 1 || count > MaxContexts {
		panic(fmt.Sprintf("proc: %d contexts on node %d, want 1..%d", count, n.ID, MaxContexts))
	}
	n.count, n.unfinished = count, count
	eng := n.f.Engine
	for i := 0; i < count; i++ {
		t := newThread()
		t.node, t.idx, t.body = n, i, fn
		t.env.P = n.f.Nodes()
		n.threads[i] = t
		n.c.started++
		n.c.live++
		eng.OwnedAtCall(int(n.ID), eng.Now(), nil, &t.nextEv)
	}
}

// Stop unwinds every thread that has not finished, ending its coroutine.
// A run that ends early (deadlock or cycle limit) calls it. A stopped
// thread is never reused.
func (n *Node) Stop() {
	for _, t := range n.threads[:n.count] {
		if t != nil {
			t.end()
		}
	}
}

// Threads reports how many contexts the node runs.
func (n *Node) Threads() int { return n.count }

// Done reports whether every thread has finished.
func (n *Node) Done() bool { return n.count > 0 && n.unfinished == 0 }

// FinishedAt reports the cycle the last thread completed (valid once Done).
func (n *Node) FinishedAt() sim.Cycle { return n.fin }

// next issues the thread's next queued operation. With the queue drained
// it first resumes the thread until the thread suspends again or returns;
// this handoff is the lockstep that keeps runs deterministic. Operations
// issue one at a time, each once its predecessor has completed, exactly
// as they would if the thread suspended after every one.
func (t *thread) next() {
	if t.head == t.n {
		t.head, t.n = 0, 0
		if !t.returned {
			t.pull()
		}
		if t.n == 0 {
			t.finish()
			return
		}
	}
	r := &t.ops[t.head]
	t.head++
	t.node.Ops++
	// Every operation begins with an instruction fetch from the code
	// region current when it was queued (one block per operation,
	// round-robin), then costs at least one issue cycle. Perfect-ifetch
	// configurations make the fetch free.
	if r.fetch {
		t.node.f.Cache(t.node.ID).Ifetch(r.pc, &t.issueEv)
		return
	}
	t.node.f.Engine.OwnedAfterCall(int(t.node.ID), 1, nil, &t.executeEv)
}

// finish records the thread's completion on its node and recycles it,
// unless its fabric started more than poolLimit threads. The node forgets
// the thread, so nothing reaches the record once it is pooled.
func (t *thread) finish() {
	n := t.node
	n.c.live--
	n.unfinished--
	n.fin = n.f.Engine.Now()
	n.threads[t.idx] = nil
	if n.c.started > poolLimit {
		t.end()
		return
	}
	t.recycle()
}

// execute performs one operation and schedules its completion. r points
// into the thread's queue. A cache hit completes inside the call that
// presents it, and the completion issues the next operation and may
// resume the thread, which refills the queue; so execute reads r only
// before that call.
func (t *thread) execute(r *request) {
	n := t.node
	id := uint64(t.idx)
	switch r.kind {
	case opRead:
		n.MemOps++
		n.f.Cache(n.ID).Access(r.addr, proto.Op{ID: id})
	case opWrite:
		n.MemOps++
		n.f.Cache(n.ID).Access(r.addr, proto.Op{Write: true, Value: r.arg, ID: id})
	case opRMW:
		n.MemOps++
		n.f.Cache(n.ID).Access(r.addr, proto.Op{Write: true, RMW: proto.RMW{Kind: r.rmw, Arg: r.arg}, ID: id})
	case opCompute:
		cycles := sim.Cycle(r.arg)
		done := n.f.Traps.Reserve(n.ID, cycles)
		if n.f.Sink != nil {
			n.f.Sink.Emit(trace.Event{
				Start: done - cycles, End: done,
				Arg: int64(cycles), Node: int32(n.ID), Peer: -1,
				Cat: trace.CatProc, Op: trace.OpCompute, Name: "compute",
			})
		}
		n.f.Engine.OwnedAtCall(int(n.ID), done, nil, &t.replyEv)
	case opWatch:
		n.f.Cache(n.ID).Watch(r.addr, r.arg, proto.Op{ID: id})
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
	t.result = v
	if t.node.count > 1 {
		t.node.f.Engine.OwnedAfterCall(int(t.node.ID), ContextSwitchCycles, nil, &t.replyEv)
		return
	}
	t.next()
}

// reply records an operation's result and issues the next operation,
// resuming the thread with the result if the queue has drained.
func (t *thread) reply(v uint64) {
	t.result = v
	t.next()
}

// Env is the shared-memory programming interface a thread sees: the
// analog of compiled Sparcle code making loads, stores, and run-time calls.
// It is valid only while the body it was passed to runs: a finished
// thread's Env serves the next thread that reuses the record.
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
func (e *Env) NodeThreads() int { return e.thread.node.count }

// post queues an operation whose result the thread does not read and
// returns at once, unless that filled the queue: then the thread suspends
// until the simulator has executed the queue.
func (e *Env) post(r request) {
	t := e.thread
	t.queue(r)
	if t.n == queueLen {
		t.suspend()
	}
}

// call queues an operation whose result the thread reads and suspends the
// thread until the simulator has executed the queue, returning the last
// operation's result.
func (e *Env) call(r request) uint64 {
	t := e.thread
	t.queue(r)
	t.suspend()
	return t.result
}

// queue appends r to the thread's operation queue, stamping the
// instruction block it fetches from the thread's current code region.
func (t *thread) queue(r request) {
	if t.codeBlocks > 0 {
		r.pc = t.codeBase + mem.Addr(t.codePos)*mem.WordsPerBlock
		r.fetch = true
		if t.codePos++; t.codePos == t.codeBlocks {
			t.codePos = 0
		}
	}
	t.ops[t.n] = r
	t.n++
}

// Read loads the word at a. The thread suspends until the load has
// completed, after every operation it posted before it.
func (e *Env) Read(a mem.Addr) uint64 {
	return e.call(request{kind: opRead, addr: a})
}

// Write stores v at a. The write is posted: the thread runs on without
// waiting for it, and the simulator performs it in program order before
// the thread's next value-returning operation.
func (e *Env) Write(a mem.Addr, v uint64) {
	e.post(request{kind: opWrite, addr: a, arg: v})
}

// RMW atomically applies op to the word at a, returning the old value.
func (e *Env) RMW(a mem.Addr, op proto.RMW) uint64 {
	return e.call(request{kind: opRMW, addr: a, rmw: op.Kind, arg: op.Arg})
}

// FetchAdd atomically adds delta and returns the previous value.
func (e *Env) FetchAdd(a mem.Addr, delta uint64) uint64 {
	return e.RMW(a, proto.RMW{Kind: proto.RMWAdd, Arg: delta})
}

// Compute consumes cycles of processor time (the thread's local work
// between memory references). It is posted like Write: the cycles pass in
// simulated time, in program order, while the thread itself runs on.
func (e *Env) Compute(cycles sim.Cycle) {
	if cycles == 0 {
		return
	}
	e.post(request{kind: opCompute, arg: uint64(cycles)})
}

// WaitChange blocks until the word at a differs from old, returning the
// new value. It models a spin-wait loop: each invalidation of the block
// re-fetches and re-checks, generating the same coherence traffic as
// spinning, without simulating every iteration.
func (e *Env) WaitChange(a mem.Addr, old uint64) uint64 {
	return e.call(request{kind: opWatch, addr: a, arg: old})
}

// CheckIn relinquishes this node's cached copy of the block containing a
// — the CICO "check-in" annotation (paper Sections 1 and 7): a programmer
// hint that the data will not be reused here, letting the directory retire
// the pointer before the next writer has to invalidate it. It is posted
// like Write.
func (e *Env) CheckIn(a mem.Addr) {
	e.post(request{kind: opCheckIn, addr: a})
}

// CheckOut acquires exclusive ownership of the block containing a before
// use — the CICO "check-out" annotation: a read-modify-write sequence on a
// checked-out block costs one ownership transfer instead of a read recall
// plus an upgrade. It is posted like Write: the thread runs on, and the
// ownership transfer completes before the simulator issues the thread's
// next operation.
func (e *Env) CheckOut(a mem.Addr) {
	e.post(request{kind: opCheckOut, addr: a})
}

// SetCode selects the instruction region the thread is executing from:
// blocks cache lines starting at base. Each subsequent operation fetches
// one instruction block from the region in round-robin order through the
// combined I/D cache. A blocks count of zero disables instruction
// modeling. Takes effect on the next operation the thread issues, posted
// or not.
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
