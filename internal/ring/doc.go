// Package ring implements the distributed ring-with-a-leader model of
// Mansour & Zaks: n processors arranged in a ring, processor 1 being the
// leader, communicating only over the ring edges with message-driven
// algorithms. The package is input-agnostic — algorithms construct their own
// per-processor Node values (closing over whatever input each processor
// holds) and hand them to an Engine.
//
// The paper's bounds hold under every legal asynchronous schedule, so the
// schedule is a pluggable axis rather than an engine property. A single
// event loop (runLoop) owns contexts, dispatch validation, bit accounting,
// trace recording, the start phase and termination; a Scheduler decides only
// the delivery order, constrained to per-link FIFO. The engines are:
//
//   - Sequential: the loop under a global-FIFO scheduler. For unidirectional
//     leader-initiated algorithms this reproduces exactly the unique
//     execution the paper describes and makes bit counts reproducible.
//   - RandomOrder: the loop under a seeded random scheduler — delivers the
//     head of a uniformly random non-empty link; used to check
//     schedule-independence across many seeds.
//   - RoundRobin: the loop cycling over links in a fixed rotation,
//     approximating synchronous rounds.
//   - Adversarial: the loop under a bounded-delay adversary that prefers the
//     newest non-empty link (maximally anti-FIFO) with a fairness bound so
//     every message still experiences only a finite delay.
//   - Concurrent: one goroutine per processor connected by unbounded links,
//     i.e. a genuinely asynchronous execution; used to demonstrate that the
//     algorithms are correct under real concurrency and to cross-check the
//     scheduler-backed engines.
//
// New schedules need only implement Scheduler and wrap it with
// NewScheduledEngine; NewEngineByName resolves the built-in names (see
// ScheduleNames) for flags and facade options.
//
// Under the global-FIFO and seeded random schedulers the loop hands a lone
// send straight to its receiver: when a delivery's Receive returns exactly
// one message for another processor and nothing else is queued, the next
// delivery is forced, so the loop performs it without Push and Next. The
// result is identical to the queue path (the random scheduler accounts the
// draws the forced choices would have made); every other schedule, and any
// scheduler wrapped or written outside this package, keeps the queue path.
//
// Runs are driven through Engine.Run (or RunWith on a caller-owned RunState:
// stats, contexts and scheduler queues reused run to run — the batch pool's
// steady-state path) under a Config carrying the message budget, trace
// recording and a cancellation context; a canceled run fails with an error
// wrapping both ErrCanceled and the context's own error.
//
// The engine, not the algorithm, accounts every payload bit sent over every
// link; Stats is the quantity all the paper's results are about.
package ring
