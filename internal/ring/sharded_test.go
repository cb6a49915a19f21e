package ring

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ringlang/internal/bits"
)

// shardedWorkerCounts are the forced segmentations the identity tests run:
// even splits, odd splits, and more workers than some of the tested rings
// have processors (the engine clamps).
var shardedWorkerCounts = []int{2, 3, 4, 7}

// roundsNode circulates a single delta-coded countdown token: the leader
// starts it at `rounds`, every follower forwards it, and the leader
// decrements it on each return, accepting at zero. With a 2-processor ring
// and 2 workers every single hop crosses a shard boundary, which is what the
// boundary-handoff allocation test needs.
type roundsNode struct {
	leader bool
	rounds uint64
}

func (r *roundsNode) Start(ctx *Context) ([]Send, error) {
	if !r.leader {
		return nil, nil
	}
	w := ctx.Writer()
	w.WriteDeltaValue(r.rounds)
	return ctx.Reply(Forward, w.BitString()), nil
}

func (r *roundsNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	if !r.leader {
		return ctx.Reply(Forward, payload), nil
	}
	v, err := bits.NewReader(payload).ReadDeltaValue()
	if err != nil {
		return nil, err
	}
	if v <= 1 {
		return nil, ctx.Accept()
	}
	w := ctx.Writer()
	w.WriteDeltaValue(v - 1)
	return ctx.Reply(Forward, w.BitString()), nil
}

func roundsNodes(n int, rounds uint64) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &roundsNode{leader: i == LeaderIndex, rounds: rounds}
	}
	return nodes
}

// TestShardedIdenticalToSequential is the engine-level half of the
// bit-identity pin (the catalog-wide half lives in the core schedule
// property test): for schedule-independent algorithms the sharded engine
// must produce the exact Result and Stats of the serial loop — totals,
// per-link counters and all — for every worker count and ring size.
func TestShardedIdenticalToSequential(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		build func(n int) []Node
	}{
		{"token", Config{RequireVerdict: true}, tokenNodes},
		{"rounds", Config{RequireVerdict: true}, func(n int) []Node { return roundsNodes(n, 5) }},
		{"increment", Config{RequireVerdict: true}, func(n int) []Node {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
			}
			return nodes
		}},
		{"flood", Config{Initiators: AllProcessors}, func(n int) []Node {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &floodOnceNode{}
			}
			return nodes
		}},
	}
	for _, tc := range cases {
		for _, n := range []int{2, 3, 5, 8, 64, 257} {
			want, err := NewSequentialEngine().Run(tc.cfg, tc.build(n))
			if err != nil {
				t.Fatalf("%s n=%d sequential: %v", tc.name, n, err)
			}
			for _, workers := range shardedWorkerCounts {
				eng := NewShardedEngineWorkers(workers)
				got, err := eng.Run(tc.cfg, tc.build(n))
				if err != nil {
					t.Fatalf("%s n=%d w=%d: %v", tc.name, n, workers, err)
				}
				if got.Verdict != want.Verdict {
					t.Errorf("%s n=%d w=%d: verdict %v, sequential %v", tc.name, n, workers, got.Verdict, want.Verdict)
				}
				if got.Stats.Messages != want.Stats.Messages || got.Stats.Bits != want.Stats.Bits ||
					got.Stats.MaxMessageBits != want.Stats.MaxMessageBits {
					t.Errorf("%s n=%d w=%d: totals %d/%d/%d, sequential %d/%d/%d",
						tc.name, n, workers,
						got.Stats.Messages, got.Stats.Bits, got.Stats.MaxMessageBits,
						want.Stats.Messages, want.Stats.Bits, want.Stats.MaxMessageBits)
				}
				if !reflect.DeepEqual(got.Stats.Links(), want.Stats.Links()) {
					t.Errorf("%s n=%d w=%d: per-link stats diverge from sequential", tc.name, n, workers)
				}
			}
		}
	}
}

// TestShardedBidirectionalBounce checks boundary handoff in both directions.
func TestShardedBidirectionalBounce(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64} {
		build := func() []Node {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &bounceNode{leader: i == LeaderIndex}
			}
			return nodes
		}
		want, err := NewSequentialEngine().Run(Config{Mode: Bidirectional, RequireVerdict: true}, build())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range shardedWorkerCounts {
			res, err := NewShardedEngineWorkers(workers).Run(Config{Mode: Bidirectional, RequireVerdict: true}, build())
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, workers, err)
			}
			if res.Verdict != want.Verdict || res.Stats.Messages != want.Stats.Messages || res.Stats.Bits != want.Stats.Bits {
				t.Errorf("n=%d w=%d: verdict=%v messages=%d bits=%d, sequential %v/%d/%d",
					n, workers, res.Verdict, res.Stats.Messages, res.Stats.Bits,
					want.Verdict, want.Stats.Messages, want.Stats.Bits)
			}
		}
	}
}

// TestShardedGuardsAndQuiescence mirrors the guard suite every other engine
// passes: quiescent termination, the message budget, empty rings and
// topology violations.
func TestShardedGuardsAndQuiescence(t *testing.T) {
	eng := NewShardedEngineWorkers(3)

	flood := make([]Node, 5)
	for i := range flood {
		flood[i] = &floodOnceNode{}
	}
	res, err := eng.Run(Config{Initiators: AllProcessors}, flood)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictNone || res.Stats.Messages != 5 {
		t.Errorf("flood: verdict=%v messages=%d", res.Verdict, res.Stats.Messages)
	}

	loop := make([]Node, 4)
	for i := range loop {
		loop[i] = &loopForeverNode{leader: i == LeaderIndex}
	}
	if _, err := eng.Run(Config{MaxMessages: 50}, loop); !errors.Is(err, ErrMessageBudgetExceeded) {
		t.Errorf("budget: err = %v, want ErrMessageBudgetExceeded", err)
	}

	if _, err := eng.Run(Config{}, nil); !errors.Is(err, ErrNoProcessors) {
		t.Errorf("empty ring: err = %v, want ErrNoProcessors", err)
	}

	bad := []Node{&illegalBackwardNode{leader: true}, &illegalBackwardNode{}}
	if _, err := eng.Run(Config{Mode: Unidirectional}, bad); !errors.Is(err, ErrBackwardInUnidirectional) {
		t.Errorf("backward send: err = %v, want ErrBackwardInUnidirectional", err)
	}

	if _, err := eng.Run(Config{Initiators: AllProcessors, RequireVerdict: true}, flood); !errors.Is(err, ErrNoVerdict) {
		t.Errorf("require verdict: err = %v, want ErrNoVerdict", err)
	}
}

// TestShardedCancellation checks the workers' amortized context polls: a
// non-terminating run under a canceled context must come back with an error
// matching both ErrCanceled and the context's own error.
func TestShardedCancellation(t *testing.T) {
	eng := NewShardedEngineWorkers(2)
	loop := make([]Node, 4)
	for i := range loop {
		loop[i] = &loopForeverNode{leader: i == LeaderIndex}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := eng.Run(Config{Ctx: ctx, MaxMessages: 1 << 40}, loop)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := eng.Run(Config{Ctx: pre}, tokenNodes(8)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run: err = %v, want ErrCanceled", err)
	}
}

// TestShardedReusableAcrossRuns drives one engine and one RunState through
// repeated runs of different sizes, checking no state leaks between them.
func TestShardedReusableAcrossRuns(t *testing.T) {
	eng := NewShardedEngineWorkers(4)
	st := NewRunState()
	for run := 0; run < 3; run++ {
		for _, n := range []int{10, 64, 7} {
			res, err := eng.RunWith(st, Config{RequireVerdict: true}, tokenNodes(n))
			if err != nil {
				t.Fatalf("run %d n=%d: %v", run, n, err)
			}
			if res.Stats.Messages != n || res.Stats.Bits != n {
				t.Errorf("run %d n=%d: messages=%d bits=%d (state leaked between runs?)",
					run, n, res.Stats.Messages, res.Stats.Bits)
			}
		}
	}
}

// TestShardedTraceFallback: trace recording needs one global delivery order,
// so it runs on the serial loop and must match the sequential engine's trace
// shape exactly.
func TestShardedTraceFallback(t *testing.T) {
	res, err := NewShardedEngineWorkers(4).Run(Config{RecordTrace: true, RequireVerdict: true}, tokenNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("expected a recorded trace from the serial fallback")
	}
	if res.Trace[len(res.Trace)-1].Kind != EventVerdict {
		t.Error("last trace event should be the verdict")
	}
	want, err := NewSequentialEngine().Run(Config{RecordTrace: true, RequireVerdict: true}, tokenNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(want.Trace) {
		t.Errorf("fallback trace has %d events, sequential %d", len(res.Trace), len(want.Trace))
	}
}

// shardedSteadyStateAllocCeiling bounds the allocations of one steady-state
// sharded run. The run below pushes >1000 messages across shard boundaries,
// so the ceiling being a small constant is what proves the boundary handoff
// (SPSC slot buffers + spill arena) allocates nothing per message; what
// remains is the per-run fixed cost — worker goroutines and the Result.
const shardedSteadyStateAllocCeiling = 48

// TestShardedSteadyStateAllocFloor is the sharded counterpart of
// TestEngineLoopAllocRegressionGuard: on a reused RunState, allocations per
// run must not scale with the message count.
func TestShardedSteadyStateAllocFloor(t *testing.T) {
	eng := NewShardedEngineWorkers(2)
	st := NewRunState()
	cfg := Config{RequireVerdict: true}
	// n=2 with 2 workers: every hop of the 1024-round token crosses a
	// boundary, exercising the SPSC rings and (once full) the spill queue.
	nodes := roundsNodes(2, 1024)
	if _, err := eng.RunWith(st, cfg, nodes); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		res, err := eng.RunWith(st, cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != VerdictAccept {
			t.Fatalf("unexpected verdict %v", res.Verdict)
		}
	})
	t.Logf("sharded steady-state allocs/run (≈2048 boundary messages): %.0f (ceiling %d)",
		allocs, shardedSteadyStateAllocCeiling)
	if allocs > shardedSteadyStateAllocCeiling {
		t.Errorf("steady-state sharded run allocates %.0f/run, ceiling is %d — boundary handoff is allocating per message",
			allocs, shardedSteadyStateAllocCeiling)
	}
}

// TestShardedLargeRing is the scale pin of this engine: a one-million-plus
// processor token circulation must complete under the sharded engine, and —
// on a reused RunState, which the first run sizes — repeat runs must stay
// within a small per-run allocation budget that scales with the worker
// count, never with n or the message count (i.e. no queue-growth
// reallocations at steady state).
func TestShardedLargeRing(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	nodes := tokenNodes(n)
	// Force at least two workers: on a single-core host the automatic sizing
	// would fall back to the serial loop, and this test pins the genuinely
	// sharded path at scale.
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	eng := NewShardedEngineWorkers(workers)
	st := NewRunState()
	cfg := Config{RequireVerdict: true}

	start := time.Now()
	res, err := eng.RunWith(st, cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictAccept || res.Stats.Messages != n || res.Stats.Bits != n {
		t.Fatalf("n=%d: verdict=%v messages=%d bits=%d", n, res.Verdict, res.Stats.Messages, res.Stats.Bits)
	}
	t.Logf("n=%d count-style circulation completed in %v under %q", n, time.Since(start), eng.Name())

	ceiling := float64(16 + 8*workers)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := eng.RunWith(st, cfg, nodes); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("n=%d steady-state allocs/run: %.0f (ceiling %.0f, %d workers)", n, allocs, ceiling, workers)
	if allocs > ceiling {
		t.Errorf("n=%d reused-state run allocates %.0f/run (ceiling %.0f): backing arrays are re-growing per run", n, allocs, ceiling)
	}
}

// TestShardedSegmentation pins the segment partition helpers: contiguous,
// exhaustive, and consistent with workerOf.
func TestShardedSegmentation(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 1000} {
		for _, wn := range []int{2, 3, 4, 7} {
			if wn > n {
				continue
			}
			next := 0
			for w := 0; w < wn; w++ {
				lo, hi := segmentBounds(w, wn, n)
				if lo != next {
					t.Fatalf("n=%d wn=%d: segment %d starts at %d, want %d", n, wn, w, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d wn=%d: segment %d empty (%d..%d)", n, wn, w, lo, hi)
				}
				for i := lo; i <= hi; i++ {
					if got := workerOf(i, wn, n); got != w {
						t.Fatalf("n=%d wn=%d: workerOf(%d) = %d, want %d", n, wn, i, got, w)
					}
				}
				next = hi + 1
			}
			if next != n {
				t.Fatalf("n=%d wn=%d: segments cover %d processors", n, wn, next)
			}
		}
	}
}
