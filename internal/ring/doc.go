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
// the delivery order, constrained to per-link FIFO. One table in
// scheduler.go lists the built-in schedules (see ScheduleNames), each with
// its aliases, whether it is seeded, and how to build its engine:
//
//   - sequential: the loop under a global-FIFO scheduler. For unidirectional
//     leader-initiated algorithms this reproduces exactly the unique
//     execution the paper describes and makes bit counts reproducible.
//   - random: the loop under a seeded random scheduler — delivers the head
//     of a uniformly random non-empty link; used to check
//     schedule-independence across many seeds.
//   - round-robin: the loop cycling over links in a fixed rotation,
//     approximating synchronous rounds.
//   - adversarial: the loop under a bounded-delay adversary that prefers the
//     newest non-empty link (maximally anti-FIFO) with a fairness bound so
//     every message still experiences only a finite delay.
//   - sharded: not a scheduler but its own engine. The ring is split into
//     contiguous segments, one worker goroutine per segment and at most one
//     per core, each running its own FIFO loop; the interleaving is whatever
//     the workers race to, while every reported quantity is an
//     order-independent aggregate. Small rings and traced runs fall back to
//     the serial loop.
//   - lossy, duplicating, crash-restart, crash-repair: the fault axis, which
//     varies delivery fate as well as order (see fault.go).
//
// What a schedule guarantees about delivery and whether it can checkpoint
// are declared by its scheduler type alone; the table reads them off once.
// New schedules need only implement Scheduler and wrap it with
// NewScheduledEngine; NewEngineByName resolves the built-in names for flags
// and facade options, handing every seedless schedule one shared engine.
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
