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
// memory across a long sequence of small runs. Reserve pre-sizes the state
// for a known upcoming ring size.
type RunState struct {
	loop     loopState
	contexts []Context
	writers  []bits.Writer

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

// NewRunStateSized returns a run state pre-sized for rings of up to n
// processors, equivalent to NewRunState followed by Reserve(n).
func NewRunStateSized(n int) *RunState {
	st := &RunState{}
	st.Reserve(n)
	return st
}

// Reserve pre-sizes the state for a ring of n processors: the processor
// contexts, their flat scratch-writer array and the per-link stats counters
// are allocated up front, so the run itself performs no growth reallocation
// on those structures. Reserving also resets the shrink policy's counters —
// an explicit reservation is a statement that the capacity is wanted.
// Reserve is a no-op when the state already holds enough capacity.
func (st *RunState) Reserve(n int) {
	if n < 1 {
		return
	}
	if cap(st.contexts) < n {
		st.contexts = make([]Context, n)
	}
	if cap(st.writers) < n {
		st.writers = make([]bits.Writer, n)
	}
	s := &st.loop.stats
	links := numLinks(n)
	if cap(s.linkMsgs) < links {
		s.linkMsgs = make([]int32, links)
		s.linkBits = make([]int64, links)
	}
	st.oversizedContexts = 0
	s.oversizedRuns = 0
}

// resetContexts sizes the context slice for a ring of n processors and wires
// every context's scratch writer to the flat writers array. Writer buffers
// grown in previous runs stay attached, so steady-state reuse never
// re-allocates payload scratch.
func (st *RunState) resetContexts(n int) []Context {
	if shouldShrink(cap(st.contexts), n, &st.oversizedContexts) {
		st.contexts = nil
		st.writers = nil
	}
	if cap(st.contexts) < n {
		st.contexts = make([]Context, n)
	}
	if cap(st.writers) < n {
		st.writers = make([]bits.Writer, n)
	}
	contexts := st.contexts[:n]
	writers := st.writers[:n]
	for i := range contexts {
		contexts[i].scratch = &writers[i]
	}
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
