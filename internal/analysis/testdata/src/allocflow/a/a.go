// Package a is the in-package allocflow fixture: a //ring:hotpath root
// propagates the allocation rules into every callee it statically reaches —
// plain calls, methods, interface dispatch — and stops at //ring:coldpath
// functions and //ringvet:ignore allocflow call sites. Lines carrying want
// comments must be flagged; every other line asserts silence.
package a

import "fmt"

func use(f func())  {}
func ints() []int   { return nil }
func fill(xs []int) {}
func format(v int)  { _ = fmt.Sprintf("v=%d", v) } // want "fmt.Sprintf allocates" "hot via"
func grow(xs []int) []int {
	return append(xs, 1) // want "append may grow"
}

var total int

// capture builds a closure over its parameter in a hot callee — the
// regression class where the profiler, not an analyzer, used to be the only
// catch.
func capture(v int) {
	use(func() { total += v }) // want "capturing closure"
}

// Handler dispatches dynamically: loop calls it through the interface, so
// every implementation in the program is considered reachable.
type Handler interface {
	Handle(v int)
}

type mapHandler struct{ m map[int]int }

func (h *mapHandler) Handle(v int) {
	h.m = map[int]int{v: v} // want "map literal allocates"
}

type cleanHandler struct{ total int }

func (h *cleanHandler) Handle(v int) {
	h.total += v
}

// diagnostics is excluded from propagation: it shares code with the loop but
// only runs when a run fails.
//
//ring:coldpath -- failure reporting, never runs per-message
func diagnostics(v int) string {
	return fmt.Sprintf("failed at %d", v)
}

// loop is the hot root: allocflow checks it and everything it reaches.
//
//ring:hotpath guard=TestLoopAllocs
func loop(h Handler, n int) {
	for v := 0; v < n; v++ {
		format(v)
		_ = grow(ints())
		capture(v)
		h.Handle(v)
		if v < 0 {
			_ = diagnostics(v)
			//ringvet:ignore allocflow -- setup helper, runs before the loop in production
			fill(setup())
		}
	}
}

// setup allocates freely: the only edge into it is suppressed, so the
// propagation never reaches it.
func setup() []int {
	out := make([]int, 0)
	out = append(out, len(fmt.Sprint("sized")))
	return out
}

// Emitter is embedded in sink below: emitAll's s.Emit(v) resolves to the
// *interface's* method (the selection's receiver is the struct, so the
// plain interface-value test misses it) and must still be treated as
// dynamic dispatch, reaching every implementation in the program.
type Emitter interface {
	Emit(v int)
}

type sink struct {
	Emitter
}

type sliceEmitter struct{ xs []int }

func (s *sliceEmitter) Emit(v int) {
	s.xs = append(s.xs, v) // want "append may grow" "emitAll"
}

// emitAll is hot; the only path to sliceEmitter.Emit is the method promoted
// from sink's embedded interface field.
//
//ring:hotpath guard=TestEmitAllocs
func emitAll(s sink, n int) {
	for v := 0; v < n; v++ {
		s.Emit(v)
	}
}
