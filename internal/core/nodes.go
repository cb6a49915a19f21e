package core

import (
	"fmt"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// This file is the node-reuse path: at large ring sizes the dominant cost of
// a steady-state run is not the deliveries but rebuilding the ring — two
// O(n) allocations per run whose zeroing and page-faulting swamp the engine
// loop at n = 2^20 and whose garbage drives the collector. A NodeReuse keeps
// a few recent rings alive across runs and relabels a matching one in place
// when the recognizer knows how (NodeRebuilder), which every token
// recognizer does.

// NodeRebuilder is implemented by recognizers that can relabel a ring they
// previously built for an equal-length word, reusing its allocations
// instead of constructing fresh nodes.
type NodeRebuilder interface {
	Recognizer
	// RebuildNodes rebuilds prev — nodes this recognizer built for a word of
	// the same length — in place for word, leaving every node exactly as
	// NewNodes would have. It fails if prev is not this recognizer's ring.
	RebuildNodes(word lang.Word, prev []ring.Node) ([]ring.Node, error)
}

// nodeReuseSlots is how many rings a NodeReuse keeps. A worker of a pool
// shared by concurrent requests interleaves their jobs, so it alternates
// between a few (recognizer, length) pairs rather than grinding one; a
// single slot would build a fresh ring on every switch.
const nodeReuseSlots = 4

// NodeReuse is a small pool of constructed rings, plugged into a run through
// RunOptions.Reuse and keyed by (recognizer, ring size). When a run matches a
// kept ring — a batch worker grinding same-length words, a shared pool
// alternating between a few requests, a benchmark's timing loop — the nodes
// are relabelled in place and the run performs no node allocation at all.
// Any other run (a new recognizer or length, or a recognizer that cannot
// rebuild) constructs fresh nodes, which replace the least recently used
// ring.
//
// A NodeReuse is NOT safe for concurrent use: like ring.RunState, it is
// meant to be owned by one worker and reused run after run.
type NodeReuse struct {
	slots [nodeReuseSlots]nodeSlot
	clock uint64
}

// nodeSlot is one kept ring and when it was last used.
type nodeSlot struct {
	rec   Recognizer
	n     int
	nodes []ring.Node
	used  uint64
}

// NewNodeReuse returns an empty node-reuse pool.
func NewNodeReuse() *NodeReuse { return &NodeReuse{} }

// build returns nodes for word, relabelling a kept ring when one matches and
// replacing the least recently used one when none does.
//
//ring:hotpath guard=TestNodeReuseStaysOnRebuildFloor
func (p *NodeReuse) build(rec Recognizer, word lang.Word) ([]ring.Node, error) {
	rb, ok := rec.(NodeRebuilder)
	if !ok {
		return rec.NewNodes(word)
	}
	p.clock++
	victim := &p.slots[0]
	for i := range p.slots {
		s := &p.slots[i]
		if s.rec == rec && s.n == len(word) && s.nodes != nil {
			s.used = p.clock
			nodes, err := rb.RebuildNodes(word, s.nodes)
			if err != nil {
				return nil, fmt.Errorf("rebuild nodes: %w", err)
			}
			return nodes, nil
		}
		if s.used < victim.used {
			victim = s
		}
	}
	//ringvet:ignore hotpathalloc -- a ring not kept yet (new recognizer or size) constructs fresh nodes; the steady path above rebuilds in place
	nodes, err := rec.NewNodes(word)
	if err != nil {
		return nil, err
	}
	*victim = nodeSlot{rec: rec, n: len(word), nodes: nodes, used: p.clock}
	return nodes, nil
}

// buildNodes is Run's node-construction step: through the reuse pool when
// one is attached, fresh otherwise.
func buildNodes(rec Recognizer, word lang.Word, reuse *NodeReuse) ([]ring.Node, error) {
	if reuse != nil {
		return reuse.build(rec, word)
	}
	return rec.NewNodes(word)
}
