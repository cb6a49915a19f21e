// Package hot holds the allocflow cases inside the //ring:hotpath roots
// themselves: their findings carry no chain. Lines carrying want comments
// must be flagged, every other line asserts silence.
package hot

import (
	"fmt"
	"unsafe"
)

type ring struct {
	slots []int
	buf   []byte
}

func sink(x any)              {}
func sinks(xs ...any)         {}
func runHot(f func() int) int { return f() }

// cold is unmarked: allocation-heavy code is fine off the hot path.
func cold(v int) string {
	s := fmt.Sprintf("v=%d", v)
	m := map[string]int{"v": v}
	sink(m)
	return s + "!"
}

// push is the annotated hot path exercising the call-shaped rules.
//
//ring:hotpath guard=TestPushAllocs
func (r *ring) push(v int, label string) error {
	_ = fmt.Sprintf("v=%d", v) // want "fmt.Sprintf allocates"
	msg := label + "!"         // want "string concatenation allocates"
	msg += "?"                 // want "string concatenation"
	_ = msg
	m := map[string]int{} // want "map literal allocates"
	_ = m
	lut := make(map[int]int) // want "make(map) allocates"
	_ = lut
	ch := make(chan int) // want "make(chan) allocates"
	_ = ch
	r.slots = append(r.slots, v) // want "append may grow"
	r.buf = append(r.buf[:0], byte(v))
	//ring:prealloc -- slots are presized to ring capacity at construction
	r.slots = append(r.slots, v)
	sink(v) // want "boxes it on the hot path"
	vals := []any{v}
	sinks(vals...)
	_ = any(v) // want "conversion to interface any boxes its operand"
	//ringvet:ignore allocflow -- one-time diagnostic on the failure path
	_ = fmt.Sprintf("fail %d", v)
	if v < 0 {
		err := fmt.Errorf("stash %d", v) // want "fmt.Errorf allocates"
		_ = err
	}
	if v > cap(r.slots) {
		return fmt.Errorf("overflow at %d", v)
	}
	return nil
}

// scan exercises the closure rules.
//
//ring:hotpath guard=TestScanAllocs
func (r *ring) scan(base int) int {
	total := 0
	add := func(v int) { total += v }
	for _, v := range r.slots {
		add(v)
	}
	total += runHot(func() int { return base }) // want "passed as a call argument"
	for range r.slots {
		f := func() int { return base } // want "built inside a loop"
		total += f()
	}
	runHot(func() int { return 1 })
	return total
}

// pass hands values to an interface parameter. A pointer, a map, a channel,
// a func and an unsafe.Pointer go into the interface word as they are; a
// struct value and an int are boxed.
//
//ring:hotpath guard=TestPassAllocs
func (r *ring) pass(m map[int]int, ch chan int, f func() int, p unsafe.Pointer) {
	sink(r)
	sink(m)
	sink(ch)
	sink(f)
	sink(cold)
	sink(p)
	_ = any(r)
	sink(*r)     // want "passing concrete fixture/allocflow/hot.ring as interface parameter boxes it"
	sink(len(m)) // want "passing concrete int as interface parameter boxes it"
}
