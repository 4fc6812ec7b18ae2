// Package hotalloc exercises the call-graph-aware allocation analyzer:
// reachability from //swex:hotpath roots through interface dispatch,
// method values, and escaped closures, plus every allocation-site kind.
package hotalloc

import "fmt"

// handler has two implementations; CHA must mark both hot.
type handler interface{ handle(n int) }

type hotImpl struct{ buf []int }

type otherImpl struct{}

type point struct{ x, y int }

type wrapper struct{ tag any }

type flusher struct{ lines []string }

// pending holds escaped closures, mimicking the engine's event queue.
var pending []func()

// Root is the per-event entry point of the fixture.
//
//swex:hotpath
func Root(h handler, fn func(), tag any) {
	h.handle(1)
	fn()
	schedule(42, tag) // want "argument boxes int into any"
	_ = tagOf(3)
}

// schedule mimics the (tag any) parameter of sim.Engine.AtCall.
func schedule(v any, t any) {
	_ = v
	_ = t
}

// tagOf is hot via the static call in Root; its interface result boxes.
func tagOf(n int) any {
	return n // want "return boxes int into any"
}

func (h *hotImpl) handle(n int) {
	h.buf = append(h.buf, n) // want "append (growth reallocates)"
	helper(n)
}

func (o otherImpl) handle(n int) {
	p := new(point) // want "new(point)"
	p.x = n
	cb := func() int { return n } // want "func literal capturing n"
	_ = cb()
	fixed := func() int { return 1 } // no capture: not an allocation
	_ = fixed()
}

// helper is hot transitively through both handle implementations.
func helper(n int) {
	m := make(map[int]int) // want "make(map[int]int"
	m[n] = n
	ids := []int{n} // want "slice literal []int"
	_ = ids
	ch := make(chan int, 1) // want "channel construction"
	ch <- n                 // want "channel send"
	_ = <-ch                // want "channel receive"
	label := "op"
	label = label + "x"                // want "string concatenation"
	_ = fmt.Sprintf("%s %d", label, n) // want "fmt.Sprintf call"
	const a, b = "l", "r"
	_ = a + b // constant concatenation folds at compile time
	var x any
	x = point{n, n} // want "assignment boxes fixture/hotalloc.point"
	_ = x
	pp := &point{x: n} // want "composite literal &point"
	_ = pp
	w := wrapper{tag: n} // want "composite element boxes int into any"
	_ = w
	_ = allowedScratch(n)
}

// allowedScratch shows the escape hatch: the site is suppressed with a
// documented reason, so Run drops it (RunAll keeps it as Suppressed).
func allowedScratch(n int) []int {
	return make([]int, n) //lint:allow hotalloc(setup-only scratch, measured cold)
}

// flush is reachable only as a method value taken in cold code; the
// engine's indirect func() dispatch must still mark it hot.
func (f *flusher) flush() {
	f.lines = append(f.lines, "x") // want "append (growth reallocates)"
}

// holdMethod is cold; taking f.flush here must not hide flush from the
// hot set (and holdMethod's own sites must not be flagged).
func holdMethod(f *flusher) func() {
	fs := make([]func(), 0, 1)
	fs = append(fs, f.flush)
	return fs[0]
}

// register is cold, but the closure it enqueues runs as an event: the
// closure body is hot even though register itself is not.
func register(n int) {
	pending = append(pending, func() {
		scratch := make([]int, n) // want "make([]int"
		_ = scratch
	})
}

// unreachable allocates freely but no hot path reaches it: the negative
// case proving reachability, not mere package membership, drives reports.
func unreachable() {
	big := make([]byte, 1<<20)
	_ = append(big, 1)
	_ = new(point)
	_ = fmt.Sprintln("cold")
}
