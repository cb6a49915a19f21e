package ringlang

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// testWords is a mixed member/non-member workload for the three-counters
// recognizer.
func testWords() []Word {
	return []Word{
		WordFromString("001122"),
		WordFromString("010212"),
		WordFromString("000111222"),
		WordFromString("012"),
		WordFromString("001122001122"),
		WordFromString("000011112222"),
	}
}

// bigWord is a member word large enough that a batch of them takes a
// schedulable amount of time, so cancellation tests have something to cancel.
func bigWord(k int) Word {
	w := make(Word, 0, 3*k)
	for _, letter := range []rune{'0', '1', '2'} {
		for i := 0; i < k; i++ {
			w = append(w, letter)
		}
	}
	return w
}

// TestClientBatchPerWordErrors pins the tentpole's no-fail-all contract: a
// malformed word gets its own error and the surrounding words keep their
// reports.
func TestClientBatchPerWordErrors(t *testing.T) {
	client, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	words := []Word{WordFromString("001122"), nil, WordFromString("012"), WordFromString("0a1")}
	results := client.Batch(context.Background(), words)
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if results[0].Err != nil || results[0].Report == nil || results[0].Report.Verdict != VerdictAccept {
		t.Errorf("good word 0 = %+v", results[0])
	}
	if results[1].Err == nil || results[1].Report != nil {
		t.Errorf("empty word 1 should fail alone: %+v", results[1])
	}
	if results[2].Err != nil || results[2].Report == nil {
		t.Errorf("good word 2 = %+v", results[2])
	}
	if results[3].Err == nil {
		t.Errorf("word 3 is off-alphabet and should fail: %+v", results[3])
	}
	if client.Batch(context.Background(), nil) != nil {
		t.Error("empty batch should return nil")
	}
}

// TestClientStreamYieldsIncrementally proves Stream does not buffer the
// batch: under a 4-worker pool, the fast words' results are yielded while
// the gated word is still blocked inside its run, and the gate is only
// released by the consumer after the first yield — if Stream buffered, no
// yield could happen before every word (including the gated one) finished
// and the test would deadlock instead of passing.
func TestClientStreamYieldsIncrementally(t *testing.T) {
	release := make(chan struct{})
	gated := "000111222"
	rec := &gatedRecognizer{Recognizer: core.NewThreeCounters(), gate: release, gatedWord: gated}
	client, err := NewClientWith(rec, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	words := []Word{WordFromString(gated), WordFromString("001122"),
		WordFromString("010212"), WordFromString("001122001122")}
	var order []int
	for i, r := range client.Stream(context.Background(), words) {
		if r.Err != nil {
			t.Fatalf("word %d: %v", i, r.Err)
		}
		order = append(order, i)
		if len(order) == 1 {
			if i == 0 {
				t.Fatal("first yield is the gated word; a fast word should stream out first")
			}
			close(release) // only now may the gated word finish
		}
	}
	if len(order) != len(words) {
		t.Fatalf("yielded %d results, want %d", len(order), len(words))
	}
	// The gated word cannot have been yielded before the release, which
	// happened strictly after a fast word streamed out.
	if order[0] == 0 {
		t.Errorf("yield order = %v: the gated word 0 streamed before any fast word", order)
	}
}

// gatedRecognizer delays node construction for one specific word until the
// gate opens; used to pin streaming and cancellation behaviour.
type gatedRecognizer struct {
	Recognizer
	gate      <-chan struct{}
	gatedWord string
	builds    atomic.Int64
}

func (g *gatedRecognizer) NewNodes(w lang.Word) ([]ring.Node, error) {
	g.builds.Add(1)
	if w.String() == g.gatedWord {
		<-g.gate
	}
	return g.Recognizer.NewNodes(w)
}

// TestClientStreamEarlyBreak pins that breaking out of a Stream cancels the
// undispatched words and the iterator returns after the pool drains — no
// goroutine is left feeding a dead consumer.
func TestClientStreamEarlyBreak(t *testing.T) {
	client, err := NewClient("three-counters", "", WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	words := make([]Word, 64)
	for i := range words {
		words[i] = bigWord(16)
	}
	yields := 0
	for _, r := range client.Stream(context.Background(), words) {
		if r.Err != nil {
			t.Fatalf("unexpected error before break: %v", r.Err)
		}
		yields++
		break
	}
	if yields != 1 {
		t.Fatalf("yielded %d results after break, want 1", yields)
	}
}

// holdFirstRun is a test engine whose first run waits until its context is
// canceled, then completes anyway; every later run is a plain sequential
// one. It makes "one word completes, the rest are canceled" deterministic
// instead of a race between the workers and the consumer. It waits on the
// run's own context, the one the pool dispatches under: a canceled parent
// closes its Done channel before it cancels the contexts derived from it.
type holdFirstRun struct {
	ring.Engine
	started chan struct{} // closed when the first run begins
	runs    atomic.Int64
}

func (e *holdFirstRun) Run(cfg ring.Config, nodes []ring.Node) (*ring.Result, error) {
	if e.runs.Add(1) == 1 {
		close(e.started)
		<-cfg.Ctx.Done()
		cfg.Ctx = nil // the held run completes despite the cancel
	}
	return e.Engine.Run(cfg, nodes)
}

// TestClientStreamCancelMidway cancels the stream's context while its first
// word is running on the only worker: that word completes, the undispatched
// ones report ErrCanceled, and every word is still yielded exactly once.
func TestClientStreamCancelMidway(t *testing.T) {
	const n = 48
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	engine := &holdFirstRun{Engine: ring.NewSequentialEngine(), started: make(chan struct{})}
	client, err := NewClientWith(core.NewThreeCounters(), WithWorkers(1), WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	go func() {
		<-engine.started
		cancel()
	}()
	words := make([]Word, n)
	for i := range words {
		words[i] = bigWord(24)
	}
	seen := make(map[int]int)
	completed, canceled := 0, 0
	for i, r := range client.Stream(ctx, words) {
		seen[i]++
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, ErrCanceled):
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("word %d: ErrCanceled result does not wrap context.Canceled: %v", i, r.Err)
			}
			canceled++
		default:
			t.Errorf("word %d: non-cancellation error: %v", i, r.Err)
		}
	}
	if len(seen) != n {
		t.Fatalf("yielded %d distinct words, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("word %d yielded %d times", i, c)
		}
	}
	if completed != 1 || canceled != n-1 {
		t.Errorf("completed=%d canceled=%d: cancel midway should complete the running word and cancel the %d others", completed, canceled, n-1)
	}
}

// TestClientBatchCancelKeepsPartialResults pins the serving-layer contract of
// the tentpole: canceling a batch returns promptly, keeps the reports that
// finished, marks the rest ErrCanceled, and leaks no worker goroutines.
func TestClientBatchCancelKeepsPartialResults(t *testing.T) {
	before := runtime.NumGoroutine()
	client, err := NewClient("three-counters", "", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	words := make([]Word, 256)
	for i := range words {
		words[i] = bigWord(48)
	}
	start := time.Now()
	results := client.Batch(ctx, words)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("canceled batch took %v to return", elapsed)
	}
	completed, canceled := 0, 0
	for i, r := range results {
		switch {
		case r.Err == nil:
			completed++
			if r.Report.Verdict != VerdictAccept {
				t.Errorf("word %d verdict = %v", i, r.Report.Verdict)
			}
		case errors.Is(r.Err, ErrCanceled):
			canceled++
		default:
			t.Errorf("word %d: non-cancellation error: %v", i, r.Err)
		}
	}
	if completed+canceled != len(words) {
		t.Fatalf("completed=%d canceled=%d, want %d total", completed, canceled, len(words))
	}
	if canceled == 0 {
		t.Skip("batch finished before the cancel landed; nothing to assert")
	}
	// Closing the client must wind down every pool worker goroutine.
	client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after canceled batch", before, now)
	}
}

// TestClientPreCanceledContext pins the cheapest path: a context canceled
// before the call runs nothing and reports ErrCanceled everywhere.
func TestClientPreCanceledContext(t *testing.T) {
	client, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Recognize(ctx, WordFromString("001122")); !errors.Is(err, ErrCanceled) {
		t.Errorf("Recognize under canceled ctx: %v", err)
	}
	for i, r := range client.Batch(ctx, testWords()) {
		if !errors.Is(r.Err, ErrCanceled) {
			t.Errorf("Batch word %d under canceled ctx: %v", i, r.Err)
		}
	}
}

// TestSentinelErrors pins the error taxonomy: every lookup and cancellation
// failure is classifiable with errors.Is against the exported sentinels.
func TestSentinelErrors(t *testing.T) {
	if _, err := NewClient("no-such-algorithm", ""); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v", err)
	}
	if _, err := NewClient("regular-one-pass", "no-such-language"); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("unknown language: %v", err)
	}
	if _, err := NewClient("collect-all", "wcw", WithSchedule("bogus")); !errors.Is(err, ErrUnknownSchedule) {
		t.Errorf("unknown schedule: %v", err)
	}
	if _, err := NewClient("lg", "no-such-growth"); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("unknown growth function: %v", err)
	}
	if _, err := NewClient("parity-one-pass", "k=x"); !errors.Is(err, ErrUnknownLanguage) {
		t.Errorf("malformed parity language: %v", err)
	}
}

// TestClientTrace pins WithTrace: traced clients return the event sequence,
// untraced ones do not pay for it.
func TestClientTrace(t *testing.T) {
	traced, err := NewClient("three-counters", "", WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	word := WordFromString("001122")
	tr, err := traced.Recognize(ctx, word)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace) == 0 {
		t.Error("traced report has no trace")
	}
	pr, err := plain.Recognize(ctx, word)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Trace != nil {
		t.Error("untraced report has a trace")
	}
	// The batch path carries traces too.
	for i, r := range traced.Batch(ctx, []Word{word, word}) {
		if r.Err != nil {
			t.Fatalf("word %d: %v", i, r.Err)
		}
		if len(r.Report.Trace) == 0 {
			t.Errorf("batch word %d has no trace", i)
		}
	}
}

// TestClientCloseLifecycle pins the pool lifecycle: Batch and Stream share a
// persistent pool, Close releases its workers and retires the client, a
// second Close is a no-op, and every call after Close reports ErrClosed
// instead of panicking.
func TestClientCloseLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	client, err := NewClient("three-counters", "", WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	words := testWords()
	for i, r := range client.Batch(ctx, words) {
		if r.Err != nil {
			t.Fatalf("word %d: %v", i, r.Err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := client.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if _, err := client.Recognize(ctx, words[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Recognize after Close: %v", err)
	}
	results := client.Batch(ctx, words)
	if len(results) != len(words) {
		t.Fatalf("Batch after Close returned %d results, want %d", len(results), len(words))
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("Batch word %d after Close: %v", i, r.Err)
		}
	}
	streamed := 0
	for _, r := range client.Stream(ctx, words) {
		streamed++
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("Stream result after Close: %v", r.Err)
		}
	}
	if streamed != len(words) {
		t.Errorf("Stream after Close yielded %d results, want %d", streamed, len(words))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked after Close: %d before, %d after", before, now)
	}
}

// TestClientCloseConcurrentWithBatch races Close against in-flight Batch and
// Stream calls: no call may panic, every word reports either a normal result
// or ErrClosed, and Close waits for the in-flight work instead of yanking the
// pool out from under it. Run with -race in CI.
func TestClientCloseConcurrentWithBatch(t *testing.T) {
	client, err := NewClient("three-counters", "", WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	words := []Word{bigWord(24), bigWord(32), bigWord(40)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range client.Batch(ctx, words) {
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
					t.Errorf("batch during Close: %v", r.Err)
				}
			}
			for _, r := range client.Stream(ctx, words) {
				if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
					t.Errorf("stream during Close: %v", r.Err)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	if err := client.Close(); err != nil {
		t.Errorf("Close racing Batch/Stream: %v", err)
	}
	wg.Wait()
}

// TestWithEngineLabel pins that a pinned engine is authoritative: its name
// becomes the schedule label of the client and of every report (any
// WithSchedule string is ignored, not left unvalidated).
func TestWithEngineLabel(t *testing.T) {
	client, err := NewClientWith(core.NewThreeCounters(),
		WithSchedule("sequential"), WithEngine(ring.NewShardedEngineWorkers(2)))
	if err != nil {
		t.Fatal(err)
	}
	if client.ScheduleName() != "sharded" {
		t.Errorf("ScheduleName = %q, want the pinned engine's name", client.ScheduleName())
	}
	report, err := client.Recognize(context.Background(), WordFromString("001122"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Schedule != "sharded" {
		t.Errorf("report schedule = %q, want sharded", report.Schedule)
	}
}

// TestClientAccessorsAndNilCtx covers the metadata accessors and the
// nil-context tolerance of every method.
func TestClientAccessorsAndNilCtx(t *testing.T) {
	client, err := NewClient("three-counters", "", WithSchedule("round-robin"))
	if err != nil {
		t.Fatal(err)
	}
	if client.AlgorithmName() != "three-counters" {
		t.Errorf("AlgorithmName = %q", client.AlgorithmName())
	}
	if client.LanguageName() != "0^k1^k2^k" {
		t.Errorf("LanguageName = %q", client.LanguageName())
	}
	if client.ScheduleName() != "round-robin" {
		t.Errorf("ScheduleName = %q", client.ScheduleName())
	}
	//nolint:staticcheck // nil ctx tolerance is part of the contract under test
	if _, err := client.Recognize(nil, WordFromString("001122")); err != nil {
		t.Errorf("nil ctx Recognize: %v", err)
	}
	//nolint:staticcheck
	for i, r := range client.Batch(nil, testWords()[:2]) {
		if r.Err != nil {
			t.Errorf("nil ctx Batch word %d: %v", i, r.Err)
		}
	}
	//nolint:staticcheck
	for i, r := range client.Stream(nil, testWords()[:2]) {
		if r.Err != nil {
			t.Errorf("nil ctx Stream word %d: %v", i, r.Err)
		}
	}
}

// TestClientKeptReportsSurviveLaterBatches pins that Batch and Stream
// reports own their stats: on a one-worker client, every run reuses the same
// worker state, yet the reports of an earlier call still equal a cold
// core.Run's per-link stats after a later batch of same-length words.
func TestClientKeptReportsSurviveLaterBatches(t *testing.T) {
	a := []Word{WordFromString("000111222"), WordFromString("012012012")}
	b := []Word{WordFromString("001122012"), WordFromString("222111000")}
	for _, schedule := range []string{"sequential", "random"} {
		c, err := NewClient("three-counters", "", WithSchedule(schedule), WithSeed(5), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		kept := make([]*Report, 0, 2*len(a))
		for _, r := range c.Batch(context.Background(), a) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			kept = append(kept, r.Report)
		}
		streamed := make([]*Report, len(a))
		for i, r := range c.Stream(context.Background(), a) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			streamed[i] = r.Report
		}
		kept = append(kept, streamed...)
		c.Batch(context.Background(), b)
		for i, rep := range kept {
			w := a[i%len(a)]
			cold, err := core.Run(core.NewThreeCounters(), w, core.RunOptions{Schedule: schedule, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.Bits != cold.Stats.Bits || rep.Stats.Messages != cold.Stats.Messages ||
				!reflect.DeepEqual(rep.Stats.Links(), cold.Stats.Links()) {
				t.Errorf("%s: report %d for %s changed after a later batch", schedule, i, w)
			}
		}
		c.Close()
	}
}
