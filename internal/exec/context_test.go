package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// batchJobs builds count identical three-counters jobs on a member word.
func batchJobs(count, size int) []Job {
	word := make(lang.Word, 0, 3*size)
	for _, letter := range []rune{'0', '1', '2'} {
		for i := 0; i < size; i++ {
			word = append(word, letter)
		}
	}
	rec := core.NewThreeCounters()
	seq := ring.NewSequentialEngine()
	jobs := make([]Job, count)
	for i := range jobs {
		jobs[i] = Job{Rec: rec, Word: word, Engine: seq}
	}
	return jobs
}

// TestRunBatchContextPreCanceled pins that a batch under an already-canceled
// context dispatches nothing: every result reports ErrCanceled (and the
// context sentinel) without running a single word.
func TestRunBatchContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := RunBatchContext(ctx, batchJobs(16, 4), Options{Workers: 2})
	if len(results) != 16 {
		t.Fatalf("got %d results, want 16", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, ring.ErrCanceled) {
			t.Errorf("result %d does not wrap ring.ErrCanceled: %v", i, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d does not wrap context.Canceled: %v", i, r.Err)
		}
		if r.Stats != nil {
			t.Errorf("result %d carries stats despite cancellation", i)
		}
	}
}

// TestRunEachCancelMidBatch cancels from the delivery callback after the
// first completed job: with one worker, every later job must resolve as
// canceled (before dispatch, or at the engine's pre-run check) while the
// completed job keeps its report — no fail-all, no lost work.
func TestRunEachCancelMidBatch(t *testing.T) {
	const jobs = 32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed, canceled atomic.Int64
	var mu sync.Mutex
	out := make([]Result, jobs)
	RunEach(ctx, batchJobs(jobs, 8), Options{Workers: 1}, func(i int, r Result) {
		mu.Lock()
		out[i] = r
		mu.Unlock()
		if r.Err == nil {
			if completed.Add(1) == 1 {
				cancel()
			}
			return
		}
		canceled.Add(1)
	})
	if completed.Load() == 0 {
		t.Fatal("no job completed before the cancel")
	}
	if canceled.Load() == 0 {
		t.Fatal("cancel mid-batch canceled nothing")
	}
	if completed.Load()+canceled.Load() != jobs {
		t.Fatalf("delivered %d+%d results, want %d", completed.Load(), canceled.Load(), jobs)
	}
	for i, r := range out {
		if r.Err != nil && !errors.Is(r.Err, ring.ErrCanceled) {
			t.Errorf("result %d failed with a non-cancellation error: %v", i, r.Err)
		}
		if r.Err == nil && r.Verdict != ring.VerdictAccept {
			t.Errorf("result %d verdict = %v", i, r.Verdict)
		}
	}
}

// TestRunBatchContextNilContext pins that a nil context means "not
// cancelable" and the batch behaves exactly like RunBatch.
func TestRunBatchContextNilContext(t *testing.T) {
	want := RunBatch(batchJobs(4, 4), Options{Workers: 2})
	got := RunBatchContext(nil, batchJobs(4, 4), Options{Workers: 2})
	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("unexpected error: %v / %v", got[i].Err, want[i].Err)
		}
		if got[i].Verdict != want[i].Verdict || got[i].Stats.Bits != want[i].Stats.Bits {
			t.Errorf("result %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestPoolSurvivesCanceledBatch checks a persistent pool stays usable after
// serving a canceled batch: the next batch on the same workers succeeds.
func TestPoolSurvivesCanceledBatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range p.RunBatchContext(ctx, batchJobs(8, 4)) {
		if !errors.Is(r.Err, ring.ErrCanceled) {
			t.Fatalf("expected cancellation, got %v", r.Err)
		}
	}
	for i, r := range p.RunBatch(batchJobs(8, 4)) {
		if r.Err != nil {
			t.Fatalf("job %d after canceled batch: %v", i, r.Err)
		}
		if r.Verdict != ring.VerdictAccept {
			t.Errorf("job %d verdict = %v", i, r.Verdict)
		}
	}
}

// TestJobRecordTrace pins the per-job trace plumbing added for the facade's
// WithTrace option: traced jobs return an independent event sequence.
func TestJobRecordTrace(t *testing.T) {
	jobs := batchJobs(2, 3)
	jobs[0].RecordTrace = true
	results := RunBatch(jobs, Options{Workers: 1})
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("unexpected errors: %v / %v", results[0].Err, results[1].Err)
	}
	if len(results[0].Trace) == 0 {
		t.Error("traced job returned no trace")
	}
	if results[1].Trace != nil {
		t.Error("untraced job returned a trace")
	}
}

// gateEngine holds every run on a ring of gatedLen processors until a token
// arrives on release; runs on other rings go straight through.
type gateEngine struct {
	ring.Engine
	gatedLen int
	release  chan struct{}
	started  chan struct{} // one value per gated run, buffered by the test
}

func (e *gateEngine) Run(cfg ring.Config, nodes []ring.Node) (*ring.Result, error) {
	if len(nodes) == e.gatedLen {
		e.started <- struct{}{}
		<-e.release
	}
	return e.Engine.Run(cfg, nodes)
}

// TestPoolSharesWorkersAcrossCalls pins the pool's dispatch order: a free
// worker serves the call with the fewest jobs running. A long call holds
// both workers and has jobs queued when a short call arrives; once one long
// job finishes, the short call must complete on that worker without waiting
// for any further long job, where first-come dispatch would hand the worker
// the long call's next job and leave the short call queued behind it.
func TestPoolSharesWorkersAcrossCalls(t *testing.T) {
	const long = 8
	engine := &gateEngine{Engine: ring.NewSequentialEngine(), gatedLen: 6,
		release: make(chan struct{}), started: make(chan struct{}, long)}
	pool := NewPool(2)
	defer pool.Close()
	defer close(engine.release) // lets a failed run's held jobs finish
	rec := core.NewThreeCounters()
	jobs := func(word string, n int) []Job {
		out := make([]Job, n)
		for i := range out {
			out[i] = Job{Rec: rec, Word: lang.WordFromString(word), Engine: engine}
		}
		return out
	}

	longDone := make(chan struct{})
	go func() {
		defer close(longDone)
		pool.RunBatch(jobs("001122", long))
	}()
	<-engine.started
	<-engine.started // both workers hold a long job
	shortDone := make(chan []Result, 1)
	go func() { shortDone <- pool.RunBatch(jobs("012", 4)) }()
	for registered := false; !registered; {
		pool.mu.Lock()
		registered = len(pool.calls) == 2
		pool.mu.Unlock()
		time.Sleep(time.Millisecond)
	}

	engine.release <- struct{}{} // one long job finishes, freeing one worker
	select {
	case results := <-shortDone:
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("short job %d: %v", i, r.Err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the short call stayed queued behind the long call's jobs")
	}
	for range long - 1 {
		engine.release <- struct{}{}
	}
	<-longDone
}
