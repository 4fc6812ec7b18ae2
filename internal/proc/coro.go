//go:build go1.23

package proc

import (
	"fmt"
	"iter"
)

// stopPanic is the sentinel that unwinds a thread stopped while suspended
// in do (see Node.Stop). Only the stopped thread's coroutine body
// recovers it.
const stopPanic = "proc: thread stopped before it finished"

// start makes fn the thread's coroutine body. Nothing runs until the first
// pull.
func (t *thread) start(fn func(*Env), env *Env) {
	t.pull, t.stop = iter.Pull(func(yield func(request) bool) {
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

// do issues one operation and suspends the thread until the simulator
// replies. Every Env operation funnels through here; it is the thread-side
// half of the alternation whose engine side is thread.next. When the
// thread is stopped instead of resumed, do unwinds it.
func (e *Env) do(r request) uint64 {
	t := e.thread
	if !t.yield(r) {
		t.stopping = true
		panic(stopPanic)
	}
	return t.result
}
