package ring

import (
	"errors"

	"ringlang/internal/bits"
)

// Node is the algorithm logic running at a single processor. The engine
// constructs one Node per processor (via whatever factory the algorithm
// provides) and drives it purely through Start and Receive. A Node must not
// communicate with other Nodes except by returning Sends.
type Node interface {
	// Start is called once, before any message delivery, on every initiator
	// processor (by default only the leader). It returns the initial
	// messages to transmit.
	Start(ctx *Context) ([]Send, error)
	// Receive is called for every message delivered to the processor. The
	// `from` argument names the neighbour the message arrived from, seen from
	// this processor: a message travelling Forward around the ring (p_i to
	// p_{i+1}) is delivered with from == Backward, because it came from the
	// receiver's backward neighbour. Receive returns any messages to transmit
	// in response.
	Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error)
}

// verdictSink receives the leader's decision. Both the single-goroutine loop
// state and the sharded engine's shared run implement it; contexts hold
// one shared sink pointer instead of one decide closure per processor, which
// keeps a reused context slice allocation-free.
type verdictSink interface {
	decide(proc int, v Verdict) error
}

// Context is the engine-provided handle a Node uses to report decisions and
// to build outgoing payloads without allocating. It is scoped to a single
// processor and valid only for the duration of the run that provided it.
type Context struct {
	isLeader bool
	proc     int
	sink     verdictSink
	// scratch is the processor's reusable payload writer (see Writer). It is
	// pooled across runs when the engine executes inside a RunState.
	scratch *bits.Writer
	// sendBuf backs the single-send slices returned by Reply.
	sendBuf [1]Send
}

// Writer returns this processor's scratch payload writer, reset and ready for
// a fresh message. Payloads built on it and sent via Writer().BitString()
// alias the scratch buffer, so they are valid only until this processor's
// next Writer call — which is exactly the discipline of a single-token
// algorithm: a processor sends at most one message per delivery and does not
// send again until the token returns. Algorithms that keep several messages
// in flight per processor must snapshot with bits.Writer.String instead.
// Engines snapshot payloads themselves when recording traces, so trace
// retention never extends a payload's lifetime.
func (c *Context) Writer() *bits.Writer {
	if c.scratch == nil {
		c.scratch = new(bits.Writer)
	}
	c.scratch.Reset()
	return c.scratch
}

// Reply returns a single-element send slice backed by per-processor storage,
// avoiding the per-message []Send allocation of a slice literal. The returned
// slice is valid until this processor's next Reply call; the engine reads it
// before this processor runs again, so handlers may return it directly.
func (c *Context) Reply(dir Direction, payload bits.String) []Send {
	// Field by field: the compiler builds a composite literal in a stack
	// temporary with 8-byte stores and copies it over with 16-byte moves,
	// whose loads cannot be forwarded from those stores and stall.
	s := &c.sendBuf[0]
	s.Dir = dir
	s.Payload = payload
	return c.sendBuf[:1]
}

// ErrNotLeader is returned when a non-leader processor attempts to decide.
var ErrNotLeader = errors.New("ring: only the leader may accept or reject")

// IsLeader reports whether this processor is the leader. The paper's model
// gives the leader (and only the leader) a distinguished role; all other
// processors run identical code.
func (c *Context) IsLeader() bool {
	return c.isLeader
}

// Accept records the leader's accepting decision and terminates the
// execution. Calling it from a non-leader is an error.
func (c *Context) Accept() error {
	if !c.isLeader {
		return ErrNotLeader
	}
	return c.sink.decide(c.proc, VerdictAccept)
}

// Reject records the leader's rejecting decision and terminates the
// execution. Calling it from a non-leader is an error.
func (c *Context) Reject() error {
	if !c.isLeader {
		return ErrNotLeader
	}
	return c.sink.decide(c.proc, VerdictReject)
}
