package core

import (
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// LineSimulation is the Stage 1 transformation of Theorem 7: it takes a
// bidirectional ring algorithm and produces an equivalent algorithm that
// never uses the link between the leader p₁ and its backward neighbour p_n.
// Whenever the wrapped algorithm would use that link, the message instead
// travels the long way around, relayed by the intermediate processors, with a
// one-bit marker distinguishing transit messages from ordinary ones.
//
// The paper's accounting: if the wrapped algorithm sends at most c₁ messages
// per processor out of a finite message set of size c₂, the transformation
// adds at most 2·c₁·(1 + ⌈log c₂⌉)·n bits and otherwise doubles nothing
// beyond the marker bit, so an O(n)-bit algorithm stays O(n). The E8
// experiment measures this overhead.
type LineSimulation struct {
	inner Recognizer
}

var _ Recognizer = (*LineSimulation)(nil)

// ErrNotBidirectional is returned when wrapping an algorithm that does not
// declare bidirectional mode (there would be nothing to reroute).
var ErrNotBidirectional = fmt.Errorf("core: line simulation requires a bidirectional inner algorithm")

// NewLineSimulation wraps a bidirectional recognizer.
func NewLineSimulation(inner Recognizer) (*LineSimulation, error) {
	if inner.Mode() != ring.Bidirectional {
		return nil, ErrNotBidirectional
	}
	return &LineSimulation{inner: inner}, nil
}

// Name implements Recognizer.
//
//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (l *LineSimulation) Name() string { return "line-sim(" + l.inner.Name() + ")" }

// Language implements Recognizer.
func (l *LineSimulation) Language() lang.Language { return l.inner.Language() }

// Mode implements Recognizer. The simulation still runs on a bidirectional
// ring, but the leader–p_n link carries no messages (verified in tests).
func (l *LineSimulation) Mode() ring.Mode { return ring.Bidirectional }

// NewNodes implements Recognizer.
func (l *LineSimulation) NewNodes(word lang.Word) ([]ring.Node, error) {
	if len(word) < 2 {
		return nil, fmt.Errorf("core: line simulation needs a ring of at least 2 processors")
	}
	innerNodes, err := l.inner.NewNodes(word)
	if err != nil {
		return nil, err
	}
	nodes := make([]ring.Node, len(innerNodes))
	for i, in := range innerNodes {
		nodes[i] = &lineNode{
			inner:    in,
			isLeader: i == ring.LeaderIndex,
			isEnd:    i == len(innerNodes)-1,
		}
	}
	return nodes, nil
}

// lineNode wraps one inner node. The paper's setup message "you are the end
// of the line" is modelled by constructing the last node with isEnd set,
// which the paper explicitly excludes from the algorithm's cost.
type lineNode struct {
	inner    ring.Node
	isLeader bool
	isEnd    bool
}

// frame prepends the transit marker to a payload.
func frame(transit bool, payload bits.String) bits.String {
	var w bits.Writer
	w.WriteBool(transit)
	w.WriteString(payload)
	return w.String()
}

// unframe splits the transit marker from a payload.
func unframe(payload bits.String) (bool, bits.String, error) {
	r := bits.NewReader(payload)
	transit, err := r.ReadBool()
	if err != nil {
		return false, bits.Empty(), fmt.Errorf("line-sim: decode marker: %w", err)
	}
	rest, err := r.ReadString(r.Remaining())
	if err != nil {
		return false, bits.Empty(), fmt.Errorf("line-sim: decode body: %w", err)
	}
	return transit, rest, nil
}

// translateSends reroutes the inner node's sends so the p₁–p_n link is never
// used: the leader's backward sends and the end's forward sends become
// transit messages travelling the other way around the line.
func (n *lineNode) translateSends(sends []ring.Send) []ring.Send {
	out := make([]ring.Send, 0, len(sends))
	for _, s := range sends {
		switch {
		case n.isLeader && s.Dir == ring.Backward:
			out = append(out, ring.SendForward(frame(true, s.Payload))) //ring:prealloc -- out is presized by the make above to len(sends)
		case n.isEnd && s.Dir == ring.Forward:
			out = append(out, ring.SendBackward(frame(true, s.Payload))) //ring:prealloc -- out is presized by the make above to len(sends)
		default:
			out = append(out, ring.Send{Dir: s.Dir, Payload: frame(false, s.Payload)}) //ring:prealloc -- out is presized by the make above to len(sends)
		}
	}
	return out
}

// Start implements ring.Node.
func (n *lineNode) Start(ctx *ring.Context) ([]ring.Send, error) {
	sends, err := n.inner.Start(ctx)
	if err != nil {
		return nil, err
	}
	return n.translateSends(sends), nil
}

// Receive implements ring.Node.
func (n *lineNode) Receive(ctx *ring.Context, from ring.Direction, payload bits.String) ([]ring.Send, error) {
	transit, body, err := unframe(payload)
	if err != nil {
		return nil, err
	}
	if !transit {
		sends, err := n.inner.Receive(ctx, from, body)
		if err != nil {
			return nil, err
		}
		return n.translateSends(sends), nil
	}
	switch {
	case n.isLeader:
		// A transit message reaching the leader originated at p_n and would
		// normally have arrived over the (cut) backward link.
		sends, err := n.inner.Receive(ctx, ring.Backward, body)
		if err != nil {
			return nil, err
		}
		return n.translateSends(sends), nil
	case n.isEnd:
		// A transit message reaching the end originated at the leader and
		// would normally have arrived over the (cut) forward link.
		sends, err := n.inner.Receive(ctx, ring.Forward, body)
		if err != nil {
			return nil, err
		}
		return n.translateSends(sends), nil
	default:
		// Intermediate processors relay transit messages unchanged, keeping
		// their travel direction: a message that arrived from our backward
		// neighbour keeps travelling forward, and vice versa.
		travel := from.Opposite()
		return []ring.Send{{Dir: travel, Payload: frame(true, body)}}, nil
	}
}
