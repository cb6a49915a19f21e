package ringlang

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

	"ringlang/internal/core"
	"ringlang/internal/exec"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// Typed sentinel errors of the facade. Every lookup and execution error
// returned by the package wraps one of these (plus, for ErrCanceled, the
// context's own error), so serving layers classify failures with errors.Is
// instead of string matching:
//
//	ErrUnknownAlgorithm     — the algorithm name is not in AlgorithmNames
//	ErrUnknownLanguage      — the language name/argument resolves to nothing
//	ErrUnknownSchedule      — the schedule name is not in ScheduleNames
//	ErrCanceled             — the context was canceled before or during a run
//	ErrClosed               — the Client was Closed before the call
//	ErrDeliveryNotTolerated — the schedule's delivery guarantee is weaker
//	                          than the algorithm tolerates (see WithAllowFaults)
//	ErrInvalidWord          — the word is empty or has a letter outside the
//	                          algorithm's alphabet
var (
	ErrUnknownAlgorithm     = core.ErrUnknownAlgorithm
	ErrInvalidWord          = lang.ErrInvalidWord
	ErrUnknownLanguage      = lang.ErrUnknownLanguage
	ErrUnknownSchedule      = ring.ErrUnknownSchedule
	ErrCanceled             = ring.ErrCanceled
	ErrClosed               = errors.New("ringlang: client is closed")
	ErrDeliveryNotTolerated = core.ErrDeliveryNotTolerated
)

// Client is a long-lived handle on one recognition algorithm under one
// delivery schedule. Its configuration is immutable after construction and
// every method is safe for concurrent use; a serving layer builds one per
// (algorithm, schedule) pair and calls it from every request goroutine. All
// methods take a context.Context and honor its cancellation promptly —
// mid-run for single executions, mid-dispatch for batches and streams — at
// amortized cost, so the engine hot path keeps its allocation floor.
//
// Batch and Stream share one lazily started worker pool whose workers reuse
// their run state — engine, scheduler queues, stats, scratch payload
// writers — from word to word and from call to call. Close releases those
// workers and retires the client: later calls report ErrClosed. Close is
// idempotent and safe to race with in-flight Batch/Stream calls (it waits
// for them to drain before releasing the pool).
type Client struct {
	rec         core.Recognizer
	engine      ring.Engine
	schedule    string
	seed        int64
	workers     int
	trace       bool
	prefix      *core.PrefixCache
	allowFaults bool

	mu       sync.Mutex
	pool     *exec.Pool
	closed   bool
	inflight sync.WaitGroup
}

// Option configures a Client at construction time.
type Option func(*Client)

// WithSchedule selects the delivery schedule by name — one of
// ScheduleNames(): "sequential", "random", "round-robin", "adversarial",
// "sharded", plus the fault axis "lossy", "duplicating", "crash-restart",
// "crash-repair". The default is sequential. The paper's
// bounds hold under every exactly-once schedule; sweeping this knob is how
// that is checked. Fault schedules whose delivery guarantee is weaker than
// exactly-once (see ring.ScheduleDeliveryGuarantee) refuse to run a raw
// recognizer with ErrDeliveryNotTolerated unless WithAllowFaults opts in.
func WithSchedule(name string) Option {
	return func(c *Client) { c.schedule = name }
}

// WithAllowFaults lets runs proceed when the schedule's delivery guarantee
// (at-least-once "duplicating", crash-prone "crash-repair") is weaker than
// the algorithm tolerates, instead of refusing with ErrDeliveryNotTolerated.
// The run then executes faithfully under the faulty network and its outcome —
// possibly a verdict the language oracle contradicts, or a typed run error —
// is the measurement. Report.Faults carries the injected-fault accounting.
func WithAllowFaults(allow bool) Option {
	return func(c *Client) { c.allowFaults = allow }
}

// WithSeed sets the seed driving randomized schedules (WithSchedule("random")).
func WithSeed(seed int64) Option {
	return func(c *Client) { c.seed = seed }
}

// WithWorkers sets how many worker goroutines Batch and Stream fan words
// across; values < 1 mean one worker per CPU (the default).
func WithWorkers(n int) Option {
	return func(c *Client) { c.workers = n }
}

// WithTrace records the full event trace of every run in Report.Trace, for
// the information-state and token analyses of internal/trace. Tracing is
// expensive on large rings; leave it off in serving paths.
func WithTrace(record bool) Option {
	return func(c *Client) { c.trace = record }
}

// WithPrefixCache attaches a client-private prefix-checkpoint cache bounded
// to roughly maxBytes of retained checkpoint state. Runs then reuse shared-
// prefix computation: the engine checkpoints each word at a few fractional
// boundaries, and a later word sharing a prefix resumes from the deepest
// stored checkpoint instead of recomputing it — Recognize, Batch and Stream
// all read and feed the same cache, so pool workers warm it for each other.
// Reports are bit-for-bit identical to cold runs. The cache engages only
// where it is sound: prefix-extendable algorithms (forward token passes; the
// backward-reading ones run cold) under prefix-stable schedules
// ("sequential", "round-robin" — see ring.ScheduleIsPrefixStable); with
// WithTrace or other schedules it is simply bypassed. maxBytes < 1 leaves
// the client uncached.
func WithPrefixCache(maxBytes int64) Option {
	return func(c *Client) {
		c.prefix = nil
		if maxBytes > 0 {
			c.prefix = core.NewPrefixCache(maxBytes)
		}
	}
}

// WithSharedPrefixCache attaches an existing prefix-checkpoint cache (see
// NewPrefixCache), so many clients — e.g. one per algorithm of a sweep —
// share one bytes budget and reuse each other's checkpoints.
// Namespacing by (algorithm, language, schedule, ring size) is internal to
// the cache; sharing it across unrelated clients is always sound. A nil
// cache leaves the client uncached.
func WithSharedPrefixCache(cache *PrefixCache) Option {
	return func(c *Client) { c.prefix = cache }
}

// PrefixStats returns the counters of the client's prefix cache, and whether
// one is attached at all.
func (c *Client) PrefixStats() (PrefixStats, bool) {
	if c.prefix == nil {
		return PrefixStats{}, false
	}
	return c.prefix.Stats(), true
}

// WithEngine pins a concrete engine instead of resolving one from
// WithSchedule/WithSeed — the extension point for schedules the built-in
// names do not cover (see ring.NewScheduledEngine). The engine must be safe
// for concurrent use, as every built-in engine is. A pinned engine is
// authoritative: its Name() becomes the client's schedule label and any
// WithSchedule value is ignored.
func WithEngine(e Engine) Option {
	return func(c *Client) { c.engine = e }
}

// NewClient builds the named algorithm (see AlgorithmNames) and wraps it in a
// Client. The language argument is required only by algorithms that are
// parameterized by a language (for example "regular-one-pass" with
// "even-ones", or "lg" with "n^1.5"). Lookup failures are reported eagerly:
// the returned error wraps ErrUnknownAlgorithm, ErrUnknownLanguage or
// ErrUnknownSchedule.
func NewClient(algorithm, language string, opts ...Option) (*Client, error) {
	rec, err := core.NewRecognizerByName(algorithm, language)
	if err != nil {
		return nil, err
	}
	return NewClientWith(rec, opts...)
}

// NewClientWith wraps an already constructed recognizer — one of the core
// constructors, a tm.NewRingRecognizer transformation, or any custom
// Recognizer — in a Client.
func NewClientWith(rec Recognizer, opts ...Option) (*Client, error) {
	c := &Client{rec: rec}
	for _, opt := range opts {
		opt(c)
	}
	if c.engine == nil {
		name := c.schedule
		if name == "" {
			name = "sequential"
		}
		engine, err := ring.NewEngineByName(name, c.seed)
		if err != nil {
			return nil, err
		}
		c.engine = engine
	} else {
		// The pinned engine is authoritative; adopting its name (rather than
		// keeping an unvalidated WithSchedule string) keeps Report.Schedule
		// truthful.
		c.schedule = c.engine.Name()
	}
	if c.schedule == "" {
		c.schedule = c.engine.Name()
	}
	return c, nil
}

// acquirePool returns the client's shared batch pool (starting it on first
// use) and registers one in-flight call, or reports ErrClosed. Every
// successful acquire must be paired with one c.inflight.Done() — that pairing
// is what lets Close wait for racing Batch/Stream calls instead of closing
// the pool out from under them.
func (c *Client) acquirePool() (*exec.Pool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.pool == nil {
		c.pool = exec.NewPool(c.workers)
	}
	c.inflight.Add(1)
	return c.pool, nil
}

// Close retires the client: it marks it closed, waits for in-flight Batch and
// Stream calls to drain, and releases the worker pool behind them (a no-op if
// neither ran). Close is idempotent — the second and every later call return
// nil immediately — and safe to call concurrently with Batch, Stream and
// Recognize: racing calls either complete normally or report ErrClosed, never
// panic. After Close every method reports ErrClosed (Batch and Stream as
// per-word Results). Callers that build short-lived clients should Close them
// to not accumulate idle worker goroutines.
//
// A Close racing a Stream waits only for the pool's work to finish, not for
// the consumer to finish ranging: results already parked in the stream's
// buffer still reach a consumer that keeps iterating.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pool := c.pool
	c.pool = nil
	c.mu.Unlock()
	c.inflight.Wait()
	if pool != nil {
		pool.Close()
	}
	return nil
}

// AlgorithmName returns the name of the algorithm the client runs.
func (c *Client) AlgorithmName() string { return c.rec.Name() }

// LanguageName returns the name of the language the client decides.
func (c *Client) LanguageName() string { return c.rec.Language().Name() }

// ScheduleName returns the delivery schedule the client runs under.
func (c *Client) ScheduleName() string { return c.schedule }

// Recognize executes one recognition on the ring labelled with word and
// returns its report. Canceling ctx aborts the run with an error wrapping
// ErrCanceled; a closed client reports ErrClosed.
func (c *Client) Recognize(ctx context.Context, word Word) (*Report, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	res, err := core.Run(c.rec, word, core.RunOptions{Engine: c.engine, Ctx: ctx, RecordTrace: c.trace, Prefix: c.prefix, AllowFaults: c.allowFaults})
	if err != nil {
		return nil, fmt.Errorf("ringlang: %w", err)
	}
	report := c.newReport(word, res.Verdict, res.Stats)
	report.Faults = res.Faults
	report.Trace = res.Trace
	return report, nil
}

// Result is the per-word outcome of a Batch or Stream call: exactly one of
// Report and Err is set. A malformed or canceled word never discards the
// other words' reports.
type Result struct {
	Report *Report
	Err    error
}

// Batch runs the client's algorithm on every word, fanning the executions
// across the client's worker pool (whose workers reuse their run state —
// engine, scheduler queues, stats — from word to word and call to call). It
// returns one Result per word, in word order; per-word failures land in the
// matching Result and never fail the words around them. Canceling ctx stops
// dispatch: words already running finish or abort through the engine's
// cancellation checks, undispatched words report ErrCanceled, and completed
// reports are kept. On a closed client every word reports ErrClosed.
func (c *Client) Batch(ctx context.Context, words []Word) []Result {
	if len(words) == 0 {
		return nil
	}
	pool, err := c.acquirePool()
	if err != nil {
		return closedResults(len(words))
	}
	defer c.inflight.Done()
	out := make([]Result, len(words))
	pool.RunEach(ctx, c.jobs(words), func(i int, r exec.Result) {
		out[i] = c.result(words[i], r)
	})
	return out
}

// closedResults is the per-word shape of a Batch or Stream call that lost the
// race with Close: one ErrClosed Result per word.
func closedResults(n int) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{Err: ErrClosed}
	}
	return out
}

// Stream runs the client's algorithm on every word like Batch, but yields
// each (word index, Result) pair as its worker finishes — completion order,
// not word order — instead of buffering the whole batch. Every word is
// yielded exactly once. Breaking out of the iteration cancels the remaining
// work and returns after the in-flight words drain; canceling ctx mid-stream
// stops dispatch and yields ErrCanceled results for the undispatched words.
// On a closed client every word yields ErrClosed.
func (c *Client) Stream(ctx context.Context, words []Word) iter.Seq2[int, Result] {
	return func(yield func(int, Result) bool) {
		if len(words) == 0 {
			return
		}
		pool, err := c.acquirePool()
		if err != nil {
			for i, r := range closedResults(len(words)) {
				if !yield(i, r) {
					return
				}
			}
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type item struct {
			idx int
			res Result
		}
		// The channel is buffered to the batch size so worker sends never
		// block: when the consumer stops early, the remaining results park in
		// the buffer and the pool still drains promptly.
		ch := make(chan item, len(words))
		go func() {
			defer close(ch)
			defer c.inflight.Done()
			pool.RunEach(ctx, c.jobs(words), func(i int, r exec.Result) {
				ch <- item{idx: i, res: c.result(words[i], r)}
			})
		}()
		for it := range ch {
			if !yield(it.idx, it.res) {
				cancel()
				for range ch { // wait for the pool to wind down
				}
				return
			}
		}
	}
}

// jobs builds the exec jobs of one Batch or Stream call.
func (c *Client) jobs(words []Word) []exec.Job {
	jobs := make([]exec.Job, len(words))
	for i, w := range words {
		jobs[i] = exec.Job{Rec: c.rec, Word: w, Engine: c.engine, RecordTrace: c.trace, Prefix: c.prefix, AllowFaults: c.allowFaults}
	}
	return jobs
}

// result converts one exec result into the facade shape. The pool lends r
// only until its deliver callback returns, so the report keeps a copy of
// the stats.
func (c *Client) result(word Word, r exec.Result) Result {
	if r.Err != nil {
		return Result{Err: fmt.Errorf("ringlang: %w", r.Err)}
	}
	report := c.newReport(word, r.Verdict, r.Stats.Clone())
	report.Faults = r.Faults
	report.Trace = r.Trace
	return Result{Report: report}
}

// newReport assembles a Report from one execution's verdict and accounting.
func (c *Client) newReport(word Word, verdict Verdict, stats *Stats) *Report {
	return &Report{
		Algorithm:        c.rec.Name(),
		LanguageName:     c.rec.Language().Name(),
		Verdict:          verdict,
		Member:           c.rec.Language().Contains(word),
		Messages:         stats.Messages,
		Bits:             stats.Bits,
		BitsPerProcessor: stats.BitsPerProcessor(),
		MaxMessageBits:   stats.MaxMessageBits,
		ProcessorCount:   stats.Processors,
		Schedule:         c.schedule,
		Stats:            stats,
	}
}
