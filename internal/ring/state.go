package ring

import "ringlang/internal/bits"

// RunState owns the per-run allocations of the shared event loop — the stats
// accounting, the processor contexts (each with its scratch payload writer,
// see Context.Writer) and (for engines that cache one) the scheduler with its
// per-link queues — so a caller that executes many runs can pay for them once
// instead of per run. A RunState may be used by one goroutine at a time;
// batch executors keep one per worker.
//
// The contexts' scratch writers are carved out of one flat writers array, so
// a ring of a million processors costs one allocation for all of them rather
// than a million pointer-chased Writer values.
//
// A Result produced with a RunState aliases the state's Stats: it is valid
// only until the state's next run. Snapshot with Stats.Clone to retain it.
//
// Backing arrays grow to the largest ring the state has run and are normally
// retained; a shrink policy (see shouldShrink) releases capacity that recent
// runs left mostly unused, so one n=10^6 run does not pin its high-water
// memory across a long sequence of small runs. A run sizes the contexts,
// writers and per-link stats to exactly its ring, so the first run at a size
// pays for them and every later one at that size or below reuses them.
type RunState struct {
	loop     loopState
	contexts []Context
	writers  []bits.Writer
	// wired counts the contexts, from the first, that already hold their
	// processor index, leader flag, scratch writer and wiredSink, so a run
	// of the same engine kind over at most that many processors rewires
	// none of them.
	wired     int
	wiredSink verdictSink

	// sched caches the scheduler built by the engine that last ran with this
	// state, keyed by that engine, so repeated runs under one engine reuse
	// the scheduler's queue backing arrays.
	sched      Scheduler
	schedOwner Engine

	// shard caches the sharded engine's per-worker run structures the same
	// way sched caches a scheduler.
	shard      *shardRun
	shardOwner Engine

	oversizedContexts int
}

// NewRunState returns an empty reusable run state.
func NewRunState() *RunState {
	return &RunState{}
}

// resetContexts sizes the context slice for a ring of n processors and
// wires each context to its processor, the run's verdict sink and its
// scratch writer in the flat writers array. Writer buffers grown in previous
// runs stay attached, so steady-state reuse never re-allocates payload
// scratch. Contexts wired by an earlier run for the same sink are already
// right and are left alone: wiring all n costs a store per field per
// processor, every run.
func (st *RunState) resetContexts(n int, sink verdictSink) []Context {
	if shouldShrink(cap(st.contexts), n, &st.oversizedContexts) {
		st.contexts = nil
		st.writers = nil
	}
	if cap(st.contexts) < n {
		st.contexts = make([]Context, n)
		st.wired = 0
	}
	if cap(st.writers) < n {
		st.writers = make([]bits.Writer, n)
		st.wired = 0
	}
	if sink != st.wiredSink {
		st.wired, st.wiredSink = 0, sink
	}
	contexts := st.contexts[:n]
	for i := st.wired; i < n; i++ {
		c := &contexts[i]
		c.isLeader = i == LeaderIndex
		c.proc = i
		c.sink = sink
		c.scratch = &st.writers[i]
	}
	st.wired = max(st.wired, n)
	return contexts
}

// scheduler returns the cached scheduler if owner built it, otherwise builds
// and caches a fresh one with factory.
func (st *RunState) scheduler(owner Engine, factory func() Scheduler) Scheduler {
	if st.schedOwner != owner || st.sched == nil {
		st.sched = factory()
		st.schedOwner = owner
	}
	return st.sched
}

// Shrink policy: a backing array is released when its capacity is at least
// shrinkFactor times what the run actually needs, for shrinkAfterRuns
// consecutive runs, and is big enough to matter (shrinkMinCap elements or
// bytes). The consecutive-runs requirement keeps a workload that alternates
// ring sizes from thrashing between allocation and release.
const (
	shrinkFactor    = 8
	shrinkAfterRuns = 16
	shrinkMinCap    = 1024
)

// shouldShrink implements the retention decision for one backing array:
// capacity is what is currently retained, need what the imminent run
// requires, and runs the caller-owned counter of consecutive oversized runs.
// It reports true when the array should be released (and resets the
// counter).
func shouldShrink(capacity, need int, runs *int) bool {
	if capacity >= shrinkMinCap && capacity >= need*shrinkFactor {
		*runs++
		if *runs >= shrinkAfterRuns {
			*runs = 0
			return true
		}
		return false
	}
	*runs = 0
	return false
}

// StatefulEngine is implemented by engines that can execute a run inside
// caller-owned reusable state. Every built-in engine implements it: the
// scheduler-backed engines and the sharded engine.
type StatefulEngine interface {
	Engine
	// RunWith behaves exactly like Run but reuses st's allocations. The
	// returned Result aliases st (see RunState) and must be consumed or
	// cloned before st's next run.
	RunWith(st *RunState, cfg Config, nodes []Node) (*Result, error)
}
