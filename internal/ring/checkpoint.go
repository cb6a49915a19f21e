package ring

import (
	"errors"
	"fmt"
)

// This file is the prefix-checkpoint subsystem: a Checkpoint freezes an
// execution after a chosen number of deliveries and a later run resumes from
// it instead of replaying the prefix. The paper's recognizers consume the
// word left-to-right — delivery j of a forward token folds letter j — so two
// words sharing a k-letter prefix perform byte-identical work for the first
// k-1 deliveries under any deterministic, word-independent schedule. The
// checkpoint is the engine-level half of that observation; which deliveries
// a given prefix pins down is the recognizer's business (see
// core.PrefixExtendable).
//
// A Checkpoint is immutable once captured: resuming copies its contents into
// the run's own state (stats arrays, scheduler queues, node states), so one
// checkpoint serves any number of continuations concurrently.

// ErrNotPrefixStable is returned when a checkpoint capture or resume is
// requested under a schedule whose delivery order is not prefix-stable (see
// ScheduleIsPrefixStable).
var ErrNotPrefixStable = errors.New("ring: schedule is not prefix-stable")

// ErrNotResumable is returned when a node of the ring does not implement
// PrefixResumable, so its per-run state cannot be captured or restored.
var ErrNotResumable = errors.New("ring: node does not support checkpoint resume")

// ErrCheckpointMismatch is returned when a Checkpoint is resumed against a
// run it was not captured for: a different ring size, topology, initiator
// set, schedule — or a trace-recording run, whose trace could not include
// the prefix's events.
var ErrCheckpointMismatch = errors.New("ring: checkpoint does not match the run")

// PrefixResumable is implemented by Nodes whose per-run mutable state fits a
// single integer, which is what lets a resume install n node states without
// boxing one allocation per processor. The zero state must describe a
// freshly constructed node, and Resume must fully overwrite the per-run
// state (a resumed node may have run before).
//
// The paper's single-token recognizers qualify trivially: a processor's only
// mutable state is how many tokens it has handled.
type PrefixResumable interface {
	Node
	// ResumeState returns the node's per-run state. A fresh node returns 0.
	ResumeState() int64
	// Resume overwrites the node's per-run state with one previously
	// returned by ResumeState on the matching processor of a run that
	// shared this run's prefix.
	Resume(state int64)
}

// checkpointableScheduler is the internal capability checkpoint capture and
// resume need from a Scheduler beyond Push/Next: exposing and restoring the
// delivery cursor. The pending messages themselves are moved through the
// public Push/Next interface.
//
// Implementing it is what makes a schedule prefix-stable (see
// ScheduleIsPrefixStable): two runs sharing a send prefix must share the
// delivery prefix, or the saved state would not be the state the cold run
// reaches.
//
//   - Global FIFO ("sequential") and "round-robin" implement it: their next
//     delivery is a pure function of the queued messages and an internal
//     cursor.
//   - "random" does not. It is reproducible per seed, but the paper's
//     memoization folds seeds together, and a seeded order is exactly the
//     kind of hidden input a checkpoint must not bake in; it falls back to
//     cold runs.
//   - "adversarial" does not. It is deterministic, but its newest-first hint
//     stacks are deliberately hostile bookkeeping with stale-hint skipping;
//     it is kept off the stable set rather than frozen into a compatibility
//     contract.
//   - "sharded" has no scheduler to implement it: its workers race real
//     goroutines, so the interleaving is timing-dependent and no two runs are
//     guaranteed to share a delivery prefix at all.
type checkpointableScheduler interface {
	Scheduler
	// snapshotCursor returns the scheduler's delivery-order cursor.
	snapshotCursor() int
	// restoreCursor reinstates a cursor returned by snapshotCursor.
	restoreCursor(cursor int)
}

// fifoScheduler: global FIFO has no cursor; re-pushing the drained queue in
// drain order reproduces it exactly.
func (s *fifoScheduler) snapshotCursor() int { return 0 }
func (s *fifoScheduler) restoreCursor(int)   {}

func (s *roundRobinScheduler) snapshotCursor() int      { return s.cursor }
func (s *roundRobinScheduler) restoreCursor(cursor int) { s.cursor = cursor }

// nodeStateRun is one run-length-encoded stretch of identical node states.
// A mid-pass token ring has at most three stretches (leader, visited
// followers, unvisited followers), so the encoding is O(1) for the cases
// checkpoints exist for, and never worse than O(n).
type nodeStateRun struct {
	count int32
	state int64
}

// Checkpoint is a frozen engine execution after a fixed number of
// deliveries: the delivery cursor, the in-flight messages (payloads cloned),
// the dense per-link stats, and the run-length-encoded node states. It is
// captured by RunCheckpointed at a requested boundary and resumed by any
// later run whose own cold execution would reach the identical state —
// which the caller guarantees by only resuming words that share the
// checkpointed prefix under the same prefix-stable schedule.
//
// A Checkpoint is immutable after capture and safe for concurrent resumes.
//
//ring:snapshot
type Checkpoint struct {
	schedule   string
	mode       Mode
	initiators Initiators
	n          int
	delivered  int

	messages       int
	bitsTotal      int
	maxMessageBits int
	// linkMsgs and linkBits are the stats counters trimmed at the last
	// nonzero slot: a checkpoint at delivery k of a forward token run
	// retains ~2k counters instead of 2n.
	linkMsgs []int32
	linkBits []int64

	// pending holds the in-flight deliveries in scheduler drain order with
	// payloads cloned out of the run's arenas; cursor is the scheduler's
	// position. Re-pushing pending in order and restoring the cursor
	// reproduces the scheduler exactly.
	pending []Delivery
	cursor  int

	nodeStates []nodeStateRun
	bytes      int64
}

// Deliveries returns the number of deliveries the checkpointed execution had
// performed — the k of "resume after k deliveries".
func (cp *Checkpoint) Deliveries() int { return cp.delivered }

// Processors returns the ring size the checkpoint was captured on. A
// checkpoint only resumes on a ring of exactly this size.
func (cp *Checkpoint) Processors() int { return cp.n }

// Schedule returns the scheduler name the checkpoint was captured under.
func (cp *Checkpoint) Schedule() string { return cp.schedule }

// Bytes returns the approximate retained size of the checkpoint, the unit
// the prefix store's LRU budget is accounted in.
func (cp *Checkpoint) Bytes() int64 { return cp.bytes }

// checkpointBaseBytes approximates the fixed per-checkpoint footprint
// (struct, slice headers, store bookkeeping); per-delivery and per-link
// costs are added during capture.
const checkpointBaseBytes = 256

// CheckpointRun configures a checkpoint-aware execution. The zero value is a
// plain run.
type CheckpointRun struct {
	// Resume, when non-nil, starts the run from the checkpoint instead of
	// the start phase. The caller must only resume runs whose cold
	// execution would reach the checkpointed state: same nodes-per-word
	// semantics up to the checkpointed prefix, same ring size, topology and
	// schedule. Ring size, mode, initiators and schedule are verified;
	// prefix agreement is the caller's contract.
	Resume *Checkpoint
	// CaptureAfter lists delivery counts at which to capture a checkpoint,
	// in ascending order. Boundaries at or below the resume point are
	// skipped, as are boundaries the run never reaches (early verdict,
	// quiescence). A boundary where the verdict fires during the delivery
	// is not captured: checkpoints freeze undecided executions only.
	CaptureAfter []int
	// OnCapture receives each captured checkpoint synchronously. Nil
	// disables capture.
	OnCapture func(*Checkpoint)
}

// CheckpointEngine is implemented by engines that can capture and resume
// prefix checkpoints: the scheduler-backed engines whose schedule is
// prefix-stable (see ScheduleIsPrefixStable).
type CheckpointEngine interface {
	StatefulEngine
	// RunCheckpointed behaves like RunWith (st may be nil for a transient
	// state) and additionally captures and/or resumes checkpoints as
	// described by run. A zero CheckpointRun makes it exactly RunWith.
	RunCheckpointed(st *RunState, cfg Config, nodes []Node, run CheckpointRun) (*Result, error)
}

// captureCheckpoint freezes the execution between two deliveries: stats,
// node states, and the scheduler's pending messages (drained, cloned, and
// re-pushed so the live run continues unchanged).
//
//ring:coldpath -- runs once per capture interval (CheckpointRun.Every deliveries), never per message
func captureCheckpoint(sched checkpointableScheduler, lp *loopState, nodes []Node, delivered int) (*Checkpoint, error) {
	n := len(nodes)
	cp := &Checkpoint{
		schedule:       sched.Name(),
		mode:           lp.cfg.Mode,
		initiators:     lp.cfg.Initiators,
		n:              n,
		delivered:      delivered,
		messages:       lp.stats.Messages,
		bitsTotal:      lp.stats.Bits,
		maxMessageBits: lp.stats.MaxMessageBits,
		cursor:         sched.snapshotCursor(),
	}
	bytes := int64(checkpointBaseBytes)

	// Node states, run-length encoded.
	for i := 0; i < n; i++ {
		pr, ok := nodes[i].(PrefixResumable)
		if !ok {
			return nil, fmt.Errorf("%w: processor %d (%T)", ErrNotResumable, i, nodes[i])
		}
		s := pr.ResumeState()
		if last := len(cp.nodeStates) - 1; last >= 0 && cp.nodeStates[last].state == s {
			cp.nodeStates[last].count++
		} else {
			cp.nodeStates = append(cp.nodeStates, nodeStateRun{count: 1, state: s})
		}
	}
	bytes += int64(len(cp.nodeStates)) * 16

	// Dense stats, trimmed at the last nonzero message counter (a slot with
	// zero messages has zero bits too).
	last := -1
	for i, m := range lp.stats.linkMsgs {
		if m != 0 {
			last = i
		}
	}
	if last >= 0 {
		cp.linkMsgs = append([]int32(nil), lp.stats.linkMsgs[:last+1]...)
		cp.linkBits = append([]int64(nil), lp.stats.linkBits[:last+1]...)
		bytes += int64(last+1) * 12
	}

	// In-flight messages: drain in schedule order, clone each payload (pop
	// views into the FIFO arena die on the next pop), then re-push the
	// clones and restore the cursor so the live run proceeds as if nothing
	// happened. Re-pushed payloads are either copied into the arena (FIFO)
	// or referenced read-only (link queues), so the checkpoint's own clones
	// stay immutable either way.
	for {
		d, ok := sched.Next()
		if !ok {
			break
		}
		d.Payload = d.Payload.Clone()
		cp.pending = append(cp.pending, d)
		bytes += int64(len(d.Payload.Raw())) + 48
	}
	for _, d := range cp.pending {
		sched.Push(linkIndex(d.To, d.From), d)
	}
	sched.restoreCursor(cp.cursor)

	cp.bytes = bytes
	return cp, nil
}

// restoreCheckpoint installs cp into a freshly reset run: stats counters,
// node states, scheduler queues and cursor. It copies out of the checkpoint
// and never aliases it, so concurrent resumes of one checkpoint are safe.
//
//ring:hotpath guard=TestCheckpointResumeAllocRegressionGuard
func restoreCheckpoint(cp *Checkpoint, cfg Config, nodes []Node, sched checkpointableScheduler, lp *loopState) error {
	switch {
	case cp.n != len(nodes):
		return fmt.Errorf("%w: captured on %d processors, resumed on %d", ErrCheckpointMismatch, cp.n, len(nodes))
	case cp.mode != cfg.Mode:
		return fmt.Errorf("%w: captured mode %v, resumed mode %v", ErrCheckpointMismatch, cp.mode, cfg.Mode)
	case cp.initiators != cfg.Initiators:
		return fmt.Errorf("%w: captured initiators %v, resumed initiators %v", ErrCheckpointMismatch, cp.initiators, cfg.Initiators)
	case cp.schedule != sched.Name():
		return fmt.Errorf("%w: captured under schedule %q, resumed under %q", ErrCheckpointMismatch, cp.schedule, sched.Name())
	case cfg.RecordTrace:
		return fmt.Errorf("%w: a resumed run cannot record a trace (the prefix's events were not replayed)", ErrCheckpointMismatch)
	}

	lp.stats.Messages = cp.messages
	lp.stats.Bits = cp.bitsTotal
	lp.stats.MaxMessageBits = cp.maxMessageBits
	lp.stats.ensureLinks()
	copy(lp.stats.linkMsgs, cp.linkMsgs)
	copy(lp.stats.linkBits, cp.linkBits)

	// Every node's state is installed — including zero runs — so resuming
	// onto nodes that ran before is as correct as resuming onto fresh ones.
	idx := 0
	for _, run := range cp.nodeStates {
		for k := int32(0); k < run.count; k++ {
			pr, ok := nodes[idx].(PrefixResumable)
			if !ok {
				return fmt.Errorf("%w: processor %d (%T)", ErrNotResumable, idx, nodes[idx])
			}
			pr.Resume(run.state)
			idx++
		}
	}
	if idx != cp.n {
		return fmt.Errorf("%w: node states cover %d of %d processors", ErrCheckpointMismatch, idx, cp.n)
	}

	for i := range cp.pending {
		d := cp.pending[i]
		sched.Push(linkIndex(d.To, d.From), d)
	}
	sched.restoreCursor(cp.cursor)
	return nil
}
