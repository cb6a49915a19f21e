package ring

import (
	"fmt"

	"ringlang/internal/bits"
)

// loopState is the mutable per-run state of the shared event loop: verdict,
// accounting, trace. It implements verdictSink, so processor contexts carry a
// plain pointer to it instead of one closure per processor — a reused
// loopState makes the loop allocation-free apart from the algorithm's own
// sends.
type loopState struct {
	cfg     Config
	stats   Stats
	trace   Trace
	seq     int
	verdict Verdict
}

// reset prepares the state for a fresh run.
func (lp *loopState) reset(cfg Config, n int) {
	lp.cfg = cfg
	lp.stats.reset(n)
	lp.trace = nil
	lp.seq = 0
	lp.verdict = VerdictNone
}

// decide implements verdictSink for the single-goroutine loop.
//
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (lp *loopState) decide(proc int, v Verdict) error {
	if lp.verdict != VerdictNone {
		return ErrAlreadyDecided
	}
	lp.verdict = v
	if lp.cfg.RecordTrace {
		//ringvet:ignore allocflow -- trace recording is opt-in and excluded from the alloc budget
		lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventVerdict, Processor: proc, Verdict: v})
		lp.seq++
	}
	return nil
}

// traceSend records the send event of s from fromProc and returns the
// payload the run goes on with: a clone, because the trace retains payloads
// beyond the delivery, while a payload built on a Context scratch writer is
// only valid until the sender's next message.
//
//ring:coldpath -- only runs with Config.RecordTrace call it; trace recording is opt-in and excluded from the alloc budget
func (lp *loopState) traceSend(fromProc int, s Send) bits.String {
	p := s.Payload.Clone()
	lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventSend, Processor: fromProc, Dir: s.Dir, Payload: p})
	lp.seq++
	return p
}

// runLoop is the single event loop behind every scheduler-backed engine. It
// owns everything the seed engines used to triplicate: processor contexts,
// send validation and routing, stats accounting, trace recording, the start
// phase, the message budget and termination. The scheduler decides nothing
// but the delivery order.
//
// st may be nil (a transient state is used) or a caller-owned RunState whose
// allocations are reused across runs; see RunState for the aliasing rules.
//
// Trace recording is gated at every site so a run with Config.RecordTrace
// off never constructs an Event.
//
//ring:deterministic
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func runLoop(cfg Config, nodes []Node, sched Scheduler, st *RunState) (*Result, error) {
	return runLoopFrom(cfg, nodes, sched, st, CheckpointRun{})
}

// runLoopFrom is runLoop extended with prefix checkpointing: run.Resume
// skips the start phase and reinstates a captured execution, and
// run.CaptureAfter freezes checkpoints at the requested delivery counts. A
// zero run is exactly runLoop; the hot delivery loop pays one integer
// compare for the capture boundary and nothing for resume.
//
//ring:deterministic
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard,TestCheckpointResumeAllocRegressionGuard
func runLoopFrom(cfg Config, nodes []Node, sched Scheduler, st *RunState, run CheckpointRun) (*Result, error) {
	cfg, err := cfg.normalize(len(nodes))
	if err != nil {
		return nil, err
	}
	var ck checkpointableScheduler
	if run.Resume != nil || (run.OnCapture != nil && len(run.CaptureAfter) > 0) {
		var ok bool
		if ck, ok = sched.(checkpointableScheduler); !ok {
			return nil, fmt.Errorf("%w: schedule %q cannot capture or resume checkpoints", ErrNotPrefixStable, sched.Name())
		}
	}
	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		if cfg.Ctx.Err() != nil {
			return nil, canceledRun(cfg.Ctx)
		}
		ctxDone = cfg.Ctx.Done()
	}
	if st == nil {
		st = &RunState{}
	}
	n := len(nodes)
	lp := &st.loop
	lp.reset(cfg, n)
	contexts := st.resetContexts(n, lp)

	sched.Reset(numLinks(n))
	dispatch := func(fromProc int, sends []Send) error {
		for _, s := range sends {
			to, arrival, err := routeSend(cfg.Mode, fromProc, s.Dir, n)
			if err != nil {
				return err
			}
			if cfg.RecordTrace {
				s.Payload = lp.traceSend(fromProc, s)
			}
			lp.stats.record(to, arrival, s.Payload.Len())
			sched.Push(linkIndex(to, arrival), Delivery{To: to, From: arrival, Payload: s.Payload})
		}
		return nil
	}

	delivered := 0
	if run.Resume != nil {
		// Resume: the start phase (and the checkpointed prefix of the
		// delivery loop) already happened in the captured execution; install
		// its state instead of replaying it.
		if err := restoreCheckpoint(run.Resume, cfg, nodes, ck, lp); err != nil {
			return nil, err
		}
		delivered = run.Resume.delivered
	} else {
		// Start phase.
		for i := 0; i < n; i++ {
			if cfg.Initiators == LeaderOnly && i != LeaderIndex {
				continue
			}
			if cfg.RecordTrace {
				//ringvet:ignore allocflow -- trace recording is opt-in and excluded from the alloc budget
				lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventStart, Processor: i})
				lp.seq++
			}
			//ringvet:ignore allocflow -- Start runs once per node at run begin, before the delivery loop
			sends, err := nodes[i].Start(&contexts[i])
			if err != nil {
				return nil, fmt.Errorf("ring: start of processor %d: %w", i, err)
			}
			if err := dispatch(i, sends); err != nil {
				return nil, err
			}
			if lp.verdict != VerdictNone {
				break
			}
		}
	}

	// Capture plan: stopAt is the next boundary (or -1, which delivered
	// never equals), so the hot loop below pays a single compare per
	// delivery whether or not captures are requested.
	capAfter := run.CaptureAfter
	if run.OnCapture == nil {
		capAfter = nil
	}
	stopAt := -1
	for len(capAfter) > 0 && (capAfter[0] <= delivered || capAfter[0] < 1) {
		capAfter = capAfter[1:]
	}
	if len(capAfter) > 0 {
		stopAt = capAfter[0]
	}

	// Hand-off: when a delivery's Receive returns exactly one send, the
	// scheduler holds nothing else and the message goes to another
	// processor, Push followed by Next would return that very message under
	// a handoffScheduler. The loop holds it instead — its receiver, arrival
	// direction and a pointer to the sender's one-element reply — and
	// performs it on the next iteration, telling the scheduler about the
	// forced choice it skipped. The reply is read in place, before the
	// receiver runs: only its sender rewrites it (a Context's Reply slot, or
	// whatever slice the node returned), and the sender cannot run before
	// the held delivery, which comes next. The payload stays a view of the
	// sender's scratch writer on the same grounds. With a trace the loop
	// holds its own copy of the send, carrying the trace's clone. A message a
	// processor sends to itself (n = 1) takes the queue path, whose copy
	// keeps the payload apart from the writer the receiver is about to
	// reuse.
	ho, _ := sched.(handoffScheduler)
	var (
		held     *Send
		heldTo   int
		heldFrom Direction
		traced   Send
	)

	// Delivery loop. Cancellation is polled every ctxCheckInterval deliveries:
	// a non-blocking receive on a prefetched Done channel, so runs with a
	// context pay no allocation and runs without one pay a nil test.
	for lp.verdict == VerdictNone {
		if ctxDone != nil && delivered&(ctxCheckInterval-1) == 0 {
			select {
			case <-ctxDone:
				return nil, canceledRun(cfg.Ctx)
			default:
			}
		}
		var (
			to      int
			from    Direction
			payload bits.String
		)
		if held != nil {
			to, from, payload = heldTo, heldFrom, held.Payload
			held = nil
			ho.forced()
		} else {
			d, ok := sched.Next()
			if !ok {
				break
			}
			to, from, payload = d.To, d.From, d.Payload
		}
		if delivered >= cfg.MaxMessages {
			return nil, fmt.Errorf("%w: %d messages", ErrMessageBudgetExceeded, delivered)
		}
		delivered++
		if cfg.RecordTrace {
			// A payload popped from the FIFO arena is recycled a couple of
			// deliveries later; the trace outlives that, so snapshot it.
			//ringvet:ignore allocflow -- trace recording is opt-in and excluded from the alloc budget
			lp.trace = append(lp.trace, Event{Seq: lp.seq, Kind: EventReceive, Processor: to, Dir: from, Payload: payload.Clone()})
			lp.seq++
		}
		sends, err := nodes[to].Receive(&contexts[to], from, payload)
		if err != nil {
			return nil, fmt.Errorf("ring: receive at processor %d: %w", to, err)
		}
		if lp.verdict != VerdictNone {
			// The leader decided while processing this delivery; the paper's
			// model terminates the execution at that point.
			break
		}
		if len(sends) == 1 && ho != nil && ho.idle() {
			s := &sends[0]
			next, arrival, err := routeSend(cfg.Mode, to, s.Dir, n)
			if err != nil {
				return nil, err
			}
			if cfg.RecordTrace {
				traced = Send{Dir: s.Dir, Payload: lp.traceSend(to, *s)}
				s = &traced
			}
			lp.stats.record(next, arrival, s.Payload.Len())
			if next != to {
				held, heldTo, heldFrom = s, next, arrival
			} else {
				sched.Push(linkIndex(next, arrival), Delivery{To: next, From: arrival, Payload: s.Payload})
			}
		} else if err := dispatch(to, sends); err != nil {
			return nil, err
		}
		if delivered == stopAt {
			// The delivery and its dispatches are complete and no verdict
			// fired: freeze the undecided state between deliveries. A held
			// message goes back into the idle queue first, where the capture
			// sees it and from which the run goes on exactly as before.
			if held != nil {
				sched.Push(linkIndex(heldTo, heldFrom), Delivery{To: heldTo, From: heldFrom, Payload: held.Payload})
				held = nil
			}
			cp, err := captureCheckpoint(ck, lp, nodes, delivered)
			if err != nil {
				return nil, err
			}
			run.OnCapture(cp)
			stopAt = -1
			for capAfter = capAfter[1:]; len(capAfter) > 0; capAfter = capAfter[1:] {
				if capAfter[0] > delivered {
					stopAt = capAfter[0]
					break
				}
			}
		}
	}

	if cfg.RequireVerdict && lp.verdict == VerdictNone {
		return nil, ErrNoVerdict
	}
	if fr, ok := sched.(faultReporter); ok {
		// Fault-injecting schedules attach their accounting, copied out of
		// the scheduler (which the next run resets) into the same allocation
		// as the Result.
		out := &faultedResult{Result: Result{Verdict: lp.verdict, Stats: &lp.stats, Trace: lp.trace}}
		fr.reportFaults(&out.faults, out.crashed[:0])
		out.Faults = &out.faults
		return &out.Result, nil
	}
	return &Result{Verdict: lp.verdict, Stats: &lp.stats, Trace: lp.trace}, nil
}

// ScheduledEngine drives the shared event loop with a fresh scheduler per
// run, so one engine value stays reusable (and goroutine-safe) no matter how
// much state its schedule keeps. Every built-in schedule but "sharded" is a
// ScheduledEngine (see NewEngineByName).
type ScheduledEngine struct {
	name      string
	factory   func() Scheduler
	guarantee DeliveryGuarantee
}

// NewScheduledEngine wraps a scheduler factory as an Engine. This is the
// extension point for schedules the built-in names do not cover, and for
// built-in schedulers at a non-default rate or bound: implement (or
// construct) a Scheduler, wrap it here, and every recognizer, experiment and
// test can run under it. The engine inherits the scheduler's delivery
// guarantee (probed from one factory call); schedulers that declare none
// uphold the exactly-once model.
func NewScheduledEngine(name string, factory func() Scheduler) *ScheduledEngine {
	e := &ScheduledEngine{name: name, factory: factory}
	if g, ok := factory().(DeliveryGuaranteed); ok {
		e.guarantee = g.DeliveryGuarantee()
	}
	return e
}

// DeliveryGuarantee implements DeliveryGuaranteed: the guarantee of the
// engine's scheduler (see EngineDeliveryGuarantee).
func (e *ScheduledEngine) DeliveryGuarantee() DeliveryGuarantee { return e.guarantee }

var _ StatefulEngine = (*ScheduledEngine)(nil)

// Name implements Engine.
func (e *ScheduledEngine) Name() string { return e.name }

// Run implements Engine.
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *ScheduledEngine) Run(cfg Config, nodes []Node) (*Result, error) {
	return runLoop(cfg, nodes, e.factory(), nil)
}

// RunWith implements StatefulEngine.
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *ScheduledEngine) RunWith(st *RunState, cfg Config, nodes []Node) (*Result, error) {
	return runLoop(cfg, nodes, st.scheduler(e, e.factory), st)
}

var _ CheckpointEngine = (*ScheduledEngine)(nil)

// RunCheckpointed implements CheckpointEngine. It fails with
// ErrNotPrefixStable when the engine's scheduler cannot checkpoint (capture
// or resume under a schedule that is not prefix-stable).
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *ScheduledEngine) RunCheckpointed(st *RunState, cfg Config, nodes []Node, run CheckpointRun) (*Result, error) {
	if st == nil {
		st = &RunState{}
	}
	return runLoopFrom(cfg, nodes, st.scheduler(e, e.factory), st, run)
}
