// Package exec is the batch-execution subsystem: a worker pool that fans
// (recognizer × word × engine) jobs across GOMAXPROCS goroutines.
//
// The Mansour–Zaks bounds are per-execution, so executions are
// embarrassingly parallel across words, sizes and schedules. What makes the
// pool more than a bare errgroup is state reuse: each worker owns one
// ring.RunState — the stats accounting with its dense per-link array, the
// processor contexts and the scheduler's queue backing arrays — and one
// core.NodeReuse keeping the rings of its few most recent (recognizer,
// length) pairs, so a worker's steady-state run allocates only what the
// algorithm itself sends, even when it alternates between the jobs of
// several callers. Results are lent, not copied: RunEach hands each one to
// its deliver callback with stats that alias the worker's state until the
// callback returns, and only the callers that keep results past it —
// Pool.RunBatchContext, ringlang.Client.Batch/Stream — clone them.
// ringserve reads the totals inside the callback and clones nothing. Every
// job pins its engine (Job.Engine); batch results are bit-for-bit identical
// to serial core.Run/core.Check calls under every built-in schedule, which
// internal/exec's property tests enforce.
//
// Entry points: NewPool starts a pool, long-lived and shared by concurrent
// callers (Pool says how they share its workers) or built for one batch and
// closed after it; Pool.RunBatchContext returns a batch's results in job
// order, and Pool.RunEach streams them in completion order (what
// ringlang.Client.Stream and ringserve's /v1/stream are built on). A canceled call's remaining jobs fail without
// running, with ring.ErrCanceled, and the words that completed are never
// discarded.
// The facade (ringlang.Client.Batch/Stream, one pool per client), the bench
// sweeps (bench.MeasureOptions.Workers), the cmd tools' -workers flags and
// the serving tier all go through here; ringserve runs every request's jobs
// on one long-lived Pool, its single bound on engine concurrency.
package exec
