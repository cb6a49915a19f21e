package ring

import (
	"fmt"
	"testing"

	"ringlang/internal/bits"
)

// wiringNode relays a one-bit token once around the ring and fails the run
// if its context is not wired to its own processor: the processor index, the
// leader flag, and a verdict sink the running engine reads (the leader's
// Accept must end the run).
type wiringNode struct{ proc int }

func (w *wiringNode) check(ctx *Context) error {
	if ctx.proc != w.proc || ctx.IsLeader() != (w.proc == LeaderIndex) || ctx.scratch == nil {
		return fmt.Errorf("processor %d runs on the context of processor %d (leader %v)", w.proc, ctx.proc, ctx.IsLeader())
	}
	return nil
}

func (w *wiringNode) Start(ctx *Context) ([]Send, error) {
	if err := w.check(ctx); err != nil || w.proc != LeaderIndex {
		return nil, err
	}
	wr := ctx.Writer()
	wr.WriteBool(true)
	return ctx.Reply(Forward, wr.BitString()), nil
}

func (w *wiringNode) Receive(ctx *Context, _ Direction, payload bits.String) ([]Send, error) {
	if err := w.check(ctx); err != nil {
		return nil, err
	}
	if w.proc == LeaderIndex {
		return nil, ctx.Accept()
	}
	return ctx.Reply(Forward, payload), nil
}

// TestRunStateRewiresContexts reuses one RunState across engines whose
// contexts report to different verdict sinks, and across ring sizes that
// grow (reallocating the contexts) and shrink: contexts wired by an earlier
// run are kept only where they are still right.
func TestRunStateRewiresContexts(t *testing.T) {
	seq, sharded := NewSequentialEngine(), NewShardedEngineWorkers(2)
	st := NewRunState()
	steps := []struct {
		eng StatefulEngine
		n   int
	}{
		{seq, 16}, {sharded, 16}, {seq, 16}, {seq, 64}, {seq, 8},
		{sharded, 64}, {sharded, 32}, {seq, 64}, {seq, 200}, {seq, 64},
	}
	for i, s := range steps {
		nodes := make([]Node, s.n)
		for p := range nodes {
			nodes[p] = &wiringNode{proc: p}
		}
		res, err := s.eng.RunWith(st, Config{RequireVerdict: true}, nodes)
		if err != nil {
			t.Fatalf("step %d (%s, n=%d): %v", i, s.eng.Name(), s.n, err)
		}
		if res.Verdict != VerdictAccept || res.Stats.Messages != s.n {
			t.Fatalf("step %d (%s, n=%d): %v after %d messages, want accept after %d",
				i, s.eng.Name(), s.n, res.Verdict, res.Stats.Messages, s.n)
		}
	}
}
