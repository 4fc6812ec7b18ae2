// Package shm is the application runtime library: barriers, spin locks,
// reductions, and distributed task queues built on the shared-memory
// operations the processor exposes. It is the analog of Alewife's parallel
// C library (and the runtime support Mul-T and Semi-C programs rely on),
// which the paper's applications use for barriers and reductions.
//
// Every structure is allocated in shared memory before threads start and
// manipulated only through ordinary reads, writes, and read-modify-writes,
// so all synchronization traffic flows through the coherence protocol
// under study.
package shm

import (
	"fmt"

	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
)

// Lock is a test-and-set spin lock with invalidation-based backoff: a
// blocked acquirer parks on the lock word and retries when the holder's
// release invalidates its copy.
type Lock struct {
	word mem.Addr
}

// NewLock allocates a lock on the given home node.
func NewLock(m *mem.Memory, home mem.NodeID) *Lock {
	return &Lock{word: m.AllocOn(home, mem.WordsPerBlock)}
}

// Acquire takes the lock.
func (l *Lock) Acquire(env *proc.Env) {
	for {
		old := env.RMW(l.word, proto.RMW{Kind: proto.RMWTestAndSet, Arg: 1})
		if old == 0 {
			return
		}
		env.WaitChange(l.word, old)
	}
}

// Release drops the lock. Only the holder may call it.
func (l *Lock) Release(env *proc.Env) {
	env.Write(l.word, 0)
}

// WithLock runs fn holding the lock.
func (l *Lock) WithLock(env *proc.Env, fn func()) {
	l.Acquire(env)
	fn()
	l.Release(env)
}

// Reducer accumulates a machine-wide sum with a single shared word.
type Reducer struct {
	word mem.Addr
}

// NewReducer allocates a reduction cell on the given home node.
func NewReducer(m *mem.Memory, home mem.NodeID) *Reducer {
	return &Reducer{word: m.AllocOn(home, mem.WordsPerBlock)}
}

// Add contributes delta.
func (r *Reducer) Add(env *proc.Env, delta uint64) { env.FetchAdd(r.word, delta) }

// Value reads the current sum.
func (r *Reducer) Value(env *proc.Env) uint64 { return env.Read(r.word) }

// Addr exposes the reduction cell's address (for result probes).
func (r *Reducer) Addr() mem.Addr { return r.word }

// TaskQueue is a distributed work queue: one locked circular buffer per
// node, with work stealing. It carries uint64 task descriptors. This is
// the substrate for the future-based parallelism of the Mul-T applications
// (TSP, EVOLVE) and the fork-join recursion of AQ.
type TaskQueue struct {
	p    int
	cap  int
	lock []*Lock
	head []mem.Addr // next slot to pop
	tail []mem.Addr // next slot to push
	buf  []mem.Addr // per-node buffer base
}

// NewTaskQueue allocates per-node queues of the given capacity.
func NewTaskQueue(m *mem.Memory, p, capacity int) *TaskQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("shm: task queue capacity %d", capacity))
	}
	q := &TaskQueue{
		p:    p,
		cap:  capacity,
		lock: make([]*Lock, p),
		head: make([]mem.Addr, p),
		tail: make([]mem.Addr, p),
		buf:  make([]mem.Addr, p),
	}
	for n := 0; n < p; n++ {
		home := mem.NodeID(n)
		q.lock[n] = NewLock(m, home)
		// Head and tail share a block: a thief's emptiness peek costs
		// one miss, and the owner's updates invalidate one line.
		ctl := m.AllocOn(home, mem.WordsPerBlock)
		q.head[n] = ctl
		q.tail[n] = ctl + 1
		q.buf[n] = m.AllocOn(home, capacity)
	}
	return q
}

// Push enqueues a task on node n's queue, reporting false if full.
func (q *TaskQueue) Push(env *proc.Env, n mem.NodeID, task uint64) bool {
	ok := false
	q.lock[n].WithLock(env, func() {
		head := env.Read(q.head[n])
		tail := env.Read(q.tail[n])
		if tail-head >= uint64(q.cap) {
			return
		}
		env.Write(q.buf[n]+mem.Addr(tail%uint64(q.cap)), task)
		env.Write(q.tail[n], tail+1)
		ok = true
	})
	return ok
}

// Pop dequeues from node n's queue, reporting false if empty.
// An unlocked peek filters the empty case first: thieves probing idle
// queues cost two reads instead of a lock round-trip, which matters when
// sixty-three nodes scan for work at once.
func (q *TaskQueue) Pop(env *proc.Env, n mem.NodeID) (uint64, bool) {
	if env.Read(q.head[n]) == env.Read(q.tail[n]) {
		return 0, false
	}
	var task uint64
	ok := false
	q.lock[n].WithLock(env, func() {
		head := env.Read(q.head[n])
		tail := env.Read(q.tail[n])
		if head == tail {
			return
		}
		task = env.Read(q.buf[n] + mem.Addr(head%uint64(q.cap)))
		env.Write(q.head[n], head+1)
		ok = true
	})
	return task, ok
}

// StealBatch probes a single victim and, on success, takes up to max
// tasks (half the victim's queue at most), re-queuing all but the first on
// the thief's own queue. Batching spreads work exponentially: each
// successful steal turns the thief into a producer other thieves can rob.
func (q *TaskQueue) StealBatch(env *proc.Env, thief mem.NodeID, attempt, max int) (uint64, bool) {
	if q.p == 1 {
		return 0, false
	}
	victim := q.victim(thief, attempt)
	if env.Read(q.head[victim]) == env.Read(q.tail[victim]) {
		return 0, false
	}
	var got []uint64
	q.lock[victim].WithLock(env, func() {
		head := env.Read(q.head[victim])
		tail := env.Read(q.tail[victim])
		n := int(tail-head+1) / 2
		if n > max {
			n = max
		}
		for i := 0; i < n; i++ {
			got = append(got, env.Read(q.buf[victim]+mem.Addr((head+uint64(i))%uint64(q.cap))))
		}
		if n > 0 {
			env.Write(q.head[victim], head+uint64(n))
		}
	})
	if len(got) == 0 {
		return 0, false
	}
	for _, t := range got[1:] {
		q.Push(env, thief, t)
	}
	return got[0], true
}

// victim picks the attempt-th victim for a thief, striding coprime to the
// machine size.
func (q *TaskQueue) victim(thief mem.NodeID, attempt int) mem.NodeID {
	stride := 7
	for q.p%stride == 0 {
		stride++
	}
	v := mem.NodeID((int(thief) + 1 + attempt*stride) % q.p)
	if v == thief {
		v = mem.NodeID((int(v) + 1) % q.p)
	}
	return v
}

// TreeBarrier is a combining-tree barrier with bounded fan-in: no barrier
// word is ever shared by more than Arity+1 nodes, so barrier traffic fits
// within a small hardware directory. It is the "fast barrier
// implementation" the paper lists among the protocol-software enhancements
// (Section 7), and the WORKER benchmark uses it so that synchronization
// does not perturb the exact worker-set sizes under study.
type TreeBarrier struct {
	p     int
	arity int
	// counts[l][g] and gens[l][g] are the arrival counter and release
	// generation of group g at level l.
	counts [][]mem.Addr
	gens   [][]mem.Addr
	sizes  [][]int
}

// TreeArity is the fan-in of each combining-tree group.
const TreeArity = 4

// NewTreeBarrier allocates the tree for p participants with the default
// fan-in. Each group's words are homed on the group's first member,
// keeping arrival traffic local to the subtree.
func NewTreeBarrier(m *mem.Memory, p int) *TreeBarrier {
	return NewTreeBarrierArity(m, p, TreeArity)
}

// NewTreeBarrierArity allocates the tree with an explicit fan-in. A fan-in
// of two bounds every barrier word's worker set within a five-pointer
// hardware directory even across release/re-arrival windows; the WORKER
// benchmark uses it so that synchronization never traps.
func NewTreeBarrierArity(m *mem.Memory, p, arity int) *TreeBarrier {
	if arity < 2 {
		arity = 2
	}
	b := &TreeBarrier{p: p, arity: arity}
	for members := p; members > 1; members = (members + b.arity - 1) / b.arity {
		groups := (members + b.arity - 1) / b.arity
		counts := make([]mem.Addr, groups)
		gens := make([]mem.Addr, groups)
		sizes := make([]int, groups)
		for g := 0; g < groups; g++ {
			size := b.arity
			if g == groups-1 && members%b.arity != 0 {
				size = members % b.arity
			}
			sizes[g] = size
			// Home the group's words on its first member's node,
			// scaled back to an actual node id at level 0 spacing.
			home := mem.NodeID((g * b.arity * stride(p, members)) % p)
			base := m.AllocOn(home, 2*mem.WordsPerBlock)
			counts[g] = base
			gens[g] = base + mem.WordsPerBlock
		}
		b.counts = append(b.counts, counts)
		b.gens = append(b.gens, gens)
		b.sizes = append(b.sizes, sizes)
	}
	return b
}

// stride maps a member index at a shrunken level back to node spacing.
func stride(p, members int) int {
	if members == 0 {
		return 1
	}
	s := p / members
	if s == 0 {
		s = 1
	}
	return s
}

// Wait blocks until all participants arrive.
func (b *TreeBarrier) Wait(env *proc.Env) {
	if b.p == 1 {
		return
	}
	b.climb(env, 0, int(env.ID()))
}

func (b *TreeBarrier) climb(env *proc.Env, level, idx int) {
	g := idx / b.arity
	gen := env.Read(b.gens[level][g])
	if env.FetchAdd(b.counts[level][g], 1) == uint64(b.sizes[level][g]-1) {
		env.Write(b.counts[level][g], 0)
		if level+1 < len(b.counts) {
			b.climb(env, level+1, g)
		}
		env.Write(b.gens[level][g], gen+1)
		return
	}
	env.WaitChange(b.gens[level][g], gen)
}

// DistTermination is a distributed quiescence detector for task-queue
// computations that scales past a few dozen nodes: each node counts the
// tasks it registered and the tasks it completed in its own local words,
// so the common case is a cache-resident increment instead of a serialized
// read-modify-write on a global counter.
//
// Quiescence is detected by summing all completed counters and then all
// registered counters: both are monotone and a task is always registered
// before it completes, so if the (earlier) completed sum equals the
// (later) registered sum, no task was outstanding in between. This is the
// classic safe scan order for distributed termination detection.
type DistTermination struct {
	p     int
	regs  []mem.Addr
	comps []mem.Addr
	done  mem.Addr
}

// NewDistTermination allocates the per-node counters.
func NewDistTermination(m *mem.Memory, p int) *DistTermination {
	t := &DistTermination{p: p, regs: make([]mem.Addr, p), comps: make([]mem.Addr, p)}
	for n := 0; n < p; n++ {
		base := m.AllocOn(mem.NodeID(n), 2*mem.WordsPerBlock)
		t.regs[n] = base
		t.comps[n] = base + mem.WordsPerBlock
	}
	t.done = m.AllocOn(0, mem.WordsPerBlock)
	return t
}

// Register announces n new tasks, counted on the caller's node.
func (t *DistTermination) Register(env *proc.Env, n uint64) {
	env.FetchAdd(t.regs[env.ID()], n)
}

// Complete retires one task, counted on the caller's node.
func (t *DistTermination) Complete(env *proc.Env) {
	env.FetchAdd(t.comps[env.ID()], 1)
}

// Detect is the designated detector's poll (conventionally node 0): it
// runs the quiescence scan and, on success, raises the done flag. Having a
// single scanner matters: the scan touches two counter blocks per node, so
// sixty-four concurrent scanners would keep every counter block's worker
// set at machine size and saturate the network with re-reads. Everyone
// else just watches the (write-once, read-shared) done flag.
func (t *DistTermination) Detect(env *proc.Env) bool {
	if t.Quiesced(env) {
		env.Write(t.done, 1)
		return true
	}
	return false
}

// Done reports whether the detector has declared termination. The flag is
// cached after the first read and invalidated exactly once.
func (t *DistTermination) Done(env *proc.Env) bool {
	return env.Read(t.done) != 0
}

// Quiesced reports whether every registered task has completed. The
// completed counters are summed before the registered counters; see the
// type comment for why that order is safe.
func (t *DistTermination) Quiesced(env *proc.Env) bool {
	var completed uint64
	for n := 0; n < t.p; n++ {
		completed += env.Read(t.comps[n])
	}
	var registered uint64
	for n := 0; n < t.p; n++ {
		registered += env.Read(t.regs[n])
	}
	return completed == registered
}
