//go:build go1.23

package proc

import (
	"fmt"
	"iter"
	"runtime"
	"sync"
)

// stopPanic is the sentinel that unwinds a thread stopped while suspended
// (see Node.Stop). Only the stopped thread's coroutine body
// recovers it.
const stopPanic = "proc: thread stopped before it finished"

// threadPool holds finished threads for reuse by later StartThreads calls
// on any node: the record with its queue and continuations, its Env and
// its coroutine, parked between bodies. It holds each through its
// threadHandle.
var threadPool sync.Pool

// poolLimit is the most threads a fabric may start for them to be pooled
// when they finish. Small machines, which campaigns build by the
// thousand, reuse every thread. A larger machine's threads end with their
// bodies, as they did before threads were pooled: idle coroutines are not
// free, and the 256 left over from each 256-node TSP run made building
// the next such machine 22% slower (DESIGN.md §8), for no reuse.
const poolLimit = 16

// threadHandle is the pool's reference to an idle thread. It alone carries
// the finalizer that stops the parked coroutine once the pool drops the
// handle. The coroutine's goroutine references the thread, and the thread
// references itself through its continuations, so a finalizer on the
// thread would never run. A thread references its handle only while it is
// in use, when the goroutine keeps both alive anyway.
type threadHandle struct{ t *thread }

// stop ends the parked coroutine of a thread the pool dropped.
func (h *threadHandle) stop() { h.t.stop() }

// newThread takes an idle thread from the pool, or builds one with its
// coroutine. Nothing runs until the first pull.
func newThread() *thread {
	if h, ok := threadPool.Get().(*threadHandle); ok {
		h.t.h = h
		return h.t
	}
	t := &thread{}
	t.nextEv = threadEvent{t, stepNext}
	t.issueEv = threadEvent{t, stepIssue}
	t.executeEv = threadEvent{t, stepExecute}
	t.replyEv = threadEvent{t, stepReply}
	t.env.thread = t
	t.start()
	t.h = &threadHandle{t}
	runtime.SetFinalizer(t.h, (*threadHandle).stop)
	return t
}

// recycle empties a finished thread's per-run state and returns it to the
// pool. Its coroutine is parked between bodies.
func (t *thread) recycle() {
	h := t.h
	t.h = nil
	t.threadRun = threadRun{}
	threadPool.Put(h)
}

// end stops the thread's coroutine for good and drops its handle with
// the finalizer: a handle the thread still referenced would close a cycle
// through the finalizer that the collector never frees.
func (t *thread) end() {
	t.stop()
	runtime.SetFinalizer(t.h, nil)
	t.h = nil
}

// start makes the thread's coroutine. Each pull after a body has returned
// runs the next body, the one t.body names at that pull.
func (t *thread) start() {
	t.pull, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		for {
			t.run()
			t.returned = true
			// Park until the next body is pulled. A stopped thread's
			// yield returns false at once.
			if !yield(struct{}{}) {
				return
			}
		}
	})
}

// run runs the current body. A thread stopped while suspended unwinds
// through the stop sentinel, which run recovers; any other panic
// propagates to the puller.
func (t *thread) run() {
	defer func() {
		if !t.stopping {
			return // a finished body, or a panic that must propagate
		}
		//lint:allow panic-hygiene(catches only the stop sentinel of a thread being unwound after a failed run)
		if p := recover(); p != stopPanic {
			panic(fmt.Sprintf("proc: thread panicked while being stopped: %v", p))
		}
	}()
	t.body(&t.env)
}

// suspend is the thread-side half of the alternation whose engine side is
// thread.next: it hands control back to the simulator until the queue has
// drained. When the thread is stopped instead of resumed, suspend unwinds
// it.
func (t *thread) suspend() {
	if !t.yield(struct{}{}) {
		t.stopping = true
		panic(stopPanic)
	}
}
