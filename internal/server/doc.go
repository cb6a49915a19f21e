// Package server is the HTTP serving tier over the recognition engines — the
// layer cmd/ringserve wraps in a binary. It turns three execution shapes into
// endpoints:
//
//	POST /v1/recognize — one word, one report
//	POST /v1/batch     — per-word results in word order, never fail-all
//	GET  /v1/stream    — results as workers finish, completion order, as
//	                     NDJSON or SSE
//	GET  /v1/catalog   — the algorithm/language/schedule catalogs
//	                     (ringlang.CurrentCatalog, the same data
//	                     `ringbench -list` prints)
//	GET  /healthz      — liveness plus cache and in-flight counters
//
// The entry point is New(Config) → Server; Server.Handler() returns the
// routed http.Handler and Server.Close drains and releases the engine pool.
// The words a request names are independent executions — the paper prices
// each on its own — so every engine run of every request is one exec.Job on
// a single exec.Pool of Config.Workers workers, started by New. That pool is
// the one bound on engine concurrency. A request's (algorithm, language,
// schedule, seed) resolves to a recognizer and an engine through a small
// fixed-size cache whose entries own no goroutines, so key churn (a fresh
// random seed per request) costs rebuilds, never idle workers. Three
// mechanisms sit between the wire and the pool:
//
//   - Memoization (internal/memo): answers are cached per (algorithm,
//     language, schedule, seed, word) as the wire payload they are served
//     as, so a repeated word is answered with zero engine runs and an entry
//     costs its key plus a fixed-size value, whatever the ring size.
//     Deterministic schedules are cached under seed 0 — their results do not
//     depend on the seed — while seeded entries keep theirs. /v1/recognize
//     runs through the cache's singleflight Do, collapsing a thundering herd
//     of identical requests into one engine run; batch and stream serve
//     per-word hits from the cache and run only the misses.
//   - Backpressure: Config.MaxInFlight bounds concurrently admitted engine
//     work with a non-blocking semaphore; beyond it the server answers 429
//     with a Retry-After header instead of queueing unboundedly. Admitted
//     requests share the pool's workers evenly (exec.Pool serves the call
//     with the fewest jobs running), so a small batch is not queued behind
//     a large one's words.
//   - Cancellation: every handler runs its jobs under its http.Request
//     context, so a dropped connection stops dispatch mid-batch and
//     mid-stream with the pool's stop-dispatch-and-drain semantics; the
//     undispatched words report ErrCanceled and already-computed answers stay
//     cached. Stream results reach the handler through a buffer sized to the
//     request's misses, so a slow reader never holds a shared worker.
//
// Every response is JSON. Failures carry the error string plus a stable
// machine-readable code derived from the facade's sentinel taxonomy
// (unknown-algorithm, unknown-language, unknown-schedule,
// delivery-not-tolerated, canceled, closed, run-failed) with the matching
// HTTP status; malformed requests answer bad-request (400), and the request
// limits batch-too-large, word-too-large and body-too-large (413) and
// overloaded (429).
package server
