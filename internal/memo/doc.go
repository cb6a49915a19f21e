// Package memo is the memoization tier of the serving layer: a sharded,
// bounded, concurrency-safe cache over recognition results.
//
// Every recognition in this repository is a pure function of its Key —
// (algorithm, language, schedule, seed, word) — because the engines are
// deterministic given a schedule and seed, and the schedule-axis property
// tests pin every algorithm's bit totals to be schedule-independent anyway.
// That makes results ideal memoization targets: a repeated word never needs
// to re-run an engine, it needs a map lookup. Seed-independent schedules
// (sequential, round-robin, adversarial, sharded) are cacheable under a zero
// seed; random-order and fault-schedule runs are keyed by their seed, so two
// seeds never share an entry (ring.ScheduleUsesSeed draws the line).
//
// The entry point is Cache, generic over the stored value (the server stores
// the wire payload of each answer, a fixed-size value independent of pooled
// run state and safe to share between requests):
//
//   - New(capacity, shards) builds a cache of power-of-two shards, each a
//     mutex-guarded map plus an intrusive LRU list. Lock contention splits
//     across shards by key hash; eviction is per shard, oldest first.
//   - Get/Put are the plain lookup surface. A Get hit performs zero
//     allocations and zero engine work — the property the serving tier's
//     hit-path guard (TestMemoHitAllocRegressionGuard) pins in CI. Peek is
//     Get for layered lookups: absences record no miss, so a fall-through
//     to Do keeps misses == computes.
//   - Do is Get plus singleflight: concurrent callers with the same Key
//     share one compute — the first caller runs it, the rest block and
//     receive the same value, so a thundering herd of identical requests
//     runs the engine exactly once. Errors are returned to every waiter but
//     never cached.
//   - Stats reports hits, misses, evictions and the live entry count;
//     ringserve exposes it on /healthz.
package memo
