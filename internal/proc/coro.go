//go:build go1.23

package proc

import (
	"fmt"
	"iter"
)

// stopPanic is the sentinel that unwinds a thread stopped while suspended
// (see Node.Stop). Only the stopped thread's coroutine body
// recovers it.
const stopPanic = "proc: thread stopped before it finished"

// start makes fn the thread's coroutine body. Nothing runs until the first
// pull.
func (t *thread) start(fn func(*Env), env *Env) {
	t.pull, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if !t.stopping {
				return // a finished thread, or a panic that must propagate
			}
			//lint:allow panic-hygiene(catches only the stop sentinel of a thread being unwound after a failed run)
			if p := recover(); p != stopPanic {
				panic(fmt.Sprintf("proc: thread panicked while being stopped: %v", p))
			}
		}()
		t.yield = yield
		fn(env)
	})
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
