package ring

import (
	"context"
	"errors"
	"testing"

	"ringlang/internal/bits"
)

// spinNode circulates a token forever: the leader starts it and forwards it
// like everyone else, so the execution only ends through the message budget —
// or through cancellation, which is what these tests exercise.
type spinNode struct {
	leader bool
}

func (s *spinNode) Start(ctx *Context) ([]Send, error) {
	if !s.leader {
		return nil, nil
	}
	w := ctx.Writer()
	w.WriteBool(true)
	return ctx.Reply(Forward, w.BitString()), nil
}

func (s *spinNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	return ctx.Reply(Forward, payload), nil
}

func spinNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &spinNode{leader: i == LeaderIndex}
	}
	return nodes
}

// cancelAfterNode forwards the token like spinNode but fires cancel once it
// has seen `after` deliveries, so the loop's amortized context check is
// exercised mid-run from inside the execution itself.
type cancelAfterNode struct {
	spinNode
	after  int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
	return c.spinNode.Receive(ctx, from, payload)
}

// requireCanceled asserts the error wraps both ErrCanceled and the context
// package's sentinel, the contract of every cancellation path.
func requireCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error does not wrap ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

// TestLoopPreCanceledContext pins the fast path: a context canceled before
// the run starts fails every engine without delivering a single message.
func TestLoopPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{
		NewSequentialEngine(),
		NewRandomOrderEngine(3),
		NewRoundRobinEngine(),
		NewAdversarialEngine(0),
		NewShardedEngineWorkers(2),
	} {
		_, err := eng.Run(Config{RequireVerdict: true, Ctx: ctx}, tokenNodes(8))
		requireCanceled(t, err)
	}
}

// TestLoopCancelMidRun cancels the context from inside a delivery and checks
// the loop aborts within one amortized check interval instead of running to
// the message budget.
func TestLoopCancelMidRun(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodes := spinNodes(n)
	nodes[1] = &cancelAfterNode{after: 5, cancel: cancel}
	cfg := Config{Ctx: ctx, MaxMessages: 1 << 20}
	res, err := NewSequentialEngine().Run(cfg, nodes)
	requireCanceled(t, err)
	if res != nil {
		t.Errorf("canceled run returned a result: %+v", res)
	}
	// The cancel lands at delivery ~5+n; the loop must notice at the next
	// 256-delivery boundary, far below the 2^20 budget.
	_, err = NewSequentialEngine().Run(Config{Ctx: context.Background(), MaxMessages: 4 * ctxCheckInterval}, spinNodes(4))
	if !errors.Is(err, ErrMessageBudgetExceeded) {
		t.Fatalf("control run should exhaust the budget, got %v", err)
	}
}

// TestLoopCancelWithReusedState checks the stateful path: cancellation on a
// RunState leaves it reusable, and the next run on it succeeds.
func TestLoopCancelWithReusedState(t *testing.T) {
	eng := NewSequentialEngine()
	st := NewRunState()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunWith(st, Config{RequireVerdict: true, Ctx: ctx}, tokenNodes(16)); err == nil {
		t.Fatal("pre-canceled RunWith did not fail")
	}
	res, err := eng.RunWith(st, Config{RequireVerdict: true, Ctx: context.Background()}, tokenNodes(16))
	if err != nil {
		t.Fatalf("reused state after cancel: %v", err)
	}
	if res.Verdict != VerdictAccept {
		t.Errorf("verdict = %v after reuse", res.Verdict)
	}
}

// TestLoopNilContextUnchanged pins that runs without a context behave exactly
// as before the context plumbing: same verdict, same accounting.
func TestLoopNilContextUnchanged(t *testing.T) {
	res, err := NewSequentialEngine().Run(Config{RequireVerdict: true}, tokenNodes(32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictAccept || res.Stats.Bits != 32 || res.Stats.Messages != 32 {
		t.Errorf("token ring accounting changed: %+v", res.Stats)
	}
}
