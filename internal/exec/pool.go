package exec

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// Job is one execution of a recognizer on a word under a delivery schedule.
type Job struct {
	// Rec is the recognizer to run. Required.
	Rec core.Recognizer
	// Word labels the ring, one letter per processor, leader first. Required.
	Word lang.Word
	// Engine executes the run. Required. One engine may be shared by many
	// jobs — engines are safe for concurrent use — and a worker reuses its
	// run state across jobs whatever their engines when the engine
	// implements ring.StatefulEngine.
	Engine ring.Engine
	// Check cross-checks the verdict against the language's own membership
	// predicate (core.Check); otherwise the run is core.Run.
	Check bool
	// AllowFaults lets the job run when the engine's delivery guarantee is
	// weaker than the recognizer tolerates, instead of refusing with
	// core.ErrDeliveryNotTolerated (see core.RunOptions.AllowFaults).
	AllowFaults bool
	// RecordTrace records the full event trace of the run. The returned
	// trace is freshly built per run and safe to retain.
	RecordTrace bool
	// Presize, when positive, pre-reserves the worker's reusable run state
	// for a ring of that many processors before the run, so large-ring jobs
	// proceed without growth reallocations (see core.RunOptions.Presize).
	Presize int
	// Prefix, when non-nil, reuses shared-prefix computation across the
	// batch's runs (and any other runs sharing the cache): each job resumes
	// from the deepest checkpoint the cache holds for a prefix of its word
	// (see core.RunOptions.Prefix). Sharing one cache across all jobs of a
	// pool is the intended shape — workers populate it for each other.
	Prefix *core.PrefixCache
}

// Result is the outcome of one Job. Stats is an independent snapshot: it
// never aliases worker state and stays valid after the pool moves on.
type Result struct {
	Verdict ring.Verdict
	Stats   *ring.Stats
	// Faults is the run's fault accounting — nil under reliable schedules,
	// always non-nil under fault-injecting ones (see ring.Result.Faults).
	// Like Stats it is freshly built per run and safe to retain.
	Faults *ring.FaultReport
	// Trace is the recorded event sequence (nil unless Job.RecordTrace).
	Trace ring.Trace
	Err   error
}

// Options configures package-level RunBatch calls.
type Options struct {
	// Workers is the number of worker goroutines; values < 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Pool is a set of persistent worker goroutines, each owning reusable run
// state. A Pool may serve many RunEach and RunBatch calls at once. A free
// worker takes the next job of the call with the fewest jobs running (the
// least recently served on a tie), so concurrent calls share the workers
// evenly: a small batch sharing the pool with a large one keeps a worker
// instead of queueing behind the large one's longer runs. Close releases the
// workers.
type Pool struct {
	workers int
	wg      sync.WaitGroup

	mu     sync.Mutex
	ready  sync.Cond // signalled when a call arrives, and on Close
	calls  []*call   // calls with jobs not yet handed to a worker
	served uint64    // jobs handed out so far, the calls' recency clock
	closed bool
}

// call is one RunEach call's progress through the pool; its counters are
// guarded by Pool.mu.
type call struct {
	ctx     context.Context
	jobs    []Job
	deliver func(idx int, res Result)
	next    int    // first job not yet handed to a worker
	running int    // jobs on a worker right now
	served  uint64 // when the call last had a job handed out
	done    sync.WaitGroup
}

// NewPool starts a pool. workers < 1 means runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.ready.L = &p.mu
	for range workers {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := newWorker()
			for {
				c, j, ok := p.take()
				if !ok {
					return
				}
				c.deliver(j, w.run(c.ctx, c.jobs[j]))
				p.mu.Lock()
				c.running--
				p.mu.Unlock()
				c.done.Done()
			}
		}()
	}
	return p
}

// take blocks until a call has a job to hand out and returns the next job of
// the call with the fewest jobs running, or reports false once the pool is
// closed and idle.
func (p *Pool) take() (*call, int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.calls) == 0 {
		if p.closed {
			return nil, 0, false
		}
		p.ready.Wait()
	}
	k := 0
	for j, c := range p.calls {
		if best := p.calls[k]; c.running < best.running || c.running == best.running && c.served < best.served {
			k = j
		}
	}
	c := p.calls[k]
	i := c.next
	c.next++
	c.running++
	p.served++
	c.served = p.served
	if c.next == len(c.jobs) {
		p.calls = slices.Delete(p.calls, k, k+1)
	}
	return c, i, true
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the workers down once no call has jobs left to hand out. The
// pool must not be used afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ready.Broadcast()
	p.wg.Wait()
}

// RunEach executes every job and hands each Result to deliver as soon as its
// worker finishes — completion order, not job order. deliver is called
// concurrently from worker goroutines and must be safe for that; every job
// is delivered exactly once. When ctx is canceled, in-flight runs abort
// through the engines' own cancellation checks, and each job not yet run
// fails without running, with an error wrapping ring.ErrCanceled, as soon
// as a worker is free: core.Run checks the context before building
// anything, and a call with no job running is served ahead of calls that
// have one. RunEach returns only after every job has been delivered.
func (p *Pool) RunEach(ctx context.Context, jobs []Job, deliver func(idx int, res Result)) {
	if len(jobs) == 0 {
		return
	}
	c := &call{ctx: ctx, jobs: jobs, deliver: deliver}
	c.done.Add(len(jobs))
	p.mu.Lock()
	p.calls = append(p.calls, c)
	p.mu.Unlock()
	p.ready.Broadcast()
	c.done.Wait()
}

// RunBatchContext executes every job and returns one Result per job, in job
// order. Job errors (including cancellation) land in the corresponding
// Result; the call itself never fails, so a canceled batch still reports
// every word that completed before the cancel.
func (p *Pool) RunBatchContext(ctx context.Context, jobs []Job) []Result {
	out := make([]Result, len(jobs))
	p.RunEach(ctx, jobs, func(i int, r Result) { out[i] = r })
	return out
}

// RunBatch executes every job without cancellation; see RunBatchContext.
func (p *Pool) RunBatch(jobs []Job) []Result {
	//ringvet:ignore ctxflow -- v1-style convenience wrapper documented as running without cancellation; RunBatchContext is the ctx-aware form
	return p.RunBatchContext(context.Background(), jobs)
}

// RunBatch executes the jobs on a transient pool.
func RunBatch(jobs []Job, opts Options) []Result {
	//ringvet:ignore ctxflow -- v1-style convenience wrapper documented as running without cancellation; RunBatchContext is the ctx-aware form
	return RunBatchContext(context.Background(), jobs, opts)
}

// RunBatchContext executes the jobs on a transient pool under ctx.
func RunBatchContext(ctx context.Context, jobs []Job, opts Options) []Result {
	p := NewPool(opts.Workers)
	defer p.Close()
	return p.RunBatchContext(ctx, jobs)
}

// RunEach executes the jobs on a transient pool, streaming each Result to
// deliver in completion order; see Pool.RunEach.
func RunEach(ctx context.Context, jobs []Job, opts Options, deliver func(idx int, res Result)) {
	p := NewPool(opts.Workers)
	defer p.Close()
	p.RunEach(ctx, jobs, deliver)
}

// worker is the reusable state one pool goroutine owns: one ring.RunState,
// so stats, contexts and scheduler queues are reused run after run, and a
// core.NodeReuse that relabels the rings of recent jobs in place. A worker of
// a long-lived pool runs the jobs of many engines and recognizers; keeping
// one state (not one per engine it ever ran) bounds what it holds.
type worker struct {
	st    *ring.RunState
	reuse *core.NodeReuse
}

func newWorker() *worker {
	return &worker{st: ring.NewRunState(), reuse: core.NewNodeReuse()}
}

// run executes one job with this worker's reusable state.
//
//ring:hotpath guard=TestBatchAllocatesLessThanSerial
func (w *worker) run(ctx context.Context, job Job) Result {
	if job.Rec == nil {
		return Result{Err: fmt.Errorf("exec: job has no recognizer")}
	}
	if job.Engine == nil {
		return Result{Err: fmt.Errorf("exec: job has no engine")}
	}
	opts := core.RunOptions{Engine: job.Engine, State: w.st, Ctx: ctx, RecordTrace: job.RecordTrace, Presize: job.Presize, Prefix: job.Prefix, Reuse: w.reuse, AllowFaults: job.AllowFaults}
	var res *ring.Result
	var err error
	if job.Check {
		res, err = core.Check(job.Rec, job.Word, opts)
	} else {
		res, err = core.Run(job.Rec, job.Word, opts)
	}
	if err != nil {
		return Result{Err: err}
	}
	// Snapshot: res.Stats aliases st and the next run on this worker resets
	// it. The trace and fault report do not — both are freshly built per run.
	return Result{Verdict: res.Verdict, Stats: res.Stats.Clone(), Faults: res.Faults, Trace: res.Trace}
}
