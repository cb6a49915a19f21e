package ring

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ringlang/internal/bits"
)

// ShardedEngine executes a run on several cores by partitioning the ring into
// contiguous segments, one worker goroutine per segment. A message whose
// receiver lives in the sender's segment is delivered through the worker's
// local struct-of-arrays FIFO (the same fifoQueue the sequential engine
// uses); the only cross-segment traffic a ring topology admits is over the
// two directed links at each segment boundary, and each of those is carried
// by a dedicated single-producer single-consumer ring with slot-owned
// reusable payload buffers, so the boundary handoff allocates nothing per
// message in steady state.
//
// Determinism: the engine's delivery interleaving is whatever the workers
// race to, which is a legal asynchronous schedule — but every quantity in
// Result and Stats is an order-independent aggregate (sums, maxes and
// per-link counters over the multiset of sends), so for algorithms whose
// send multiset does not depend on the schedule (the entire catalog; pinned
// by the cross-schedule property tests) the Result and Stats are
// bit-identical to the serial loop's. Per-link counters need no
// synchronization: a directed link has exactly one sending processor, hence
// exactly one writing worker. Trace recording is inherently
// order-dependent, so a run with Config.RecordTrace falls back to the serial
// loop, as do rings too small to shard.
//
// Termination uses an in-flight message counter: incremented before a send
// is enqueued, decremented after a delivery is fully processed (its response
// sends already counted), so the counter reaching zero proves global
// quiescence. The start phase runs serially before the workers launch and
// seeds the counter.
type ShardedEngine struct {
	// workers forces the worker count when positive (it is still clamped to
	// the ring size); zero means one worker per available core.
	workers int
}

var _ StatefulEngine = (*ShardedEngine)(nil)

// NewShardedEngine returns a segment-sharded engine using one worker per
// available core.
func NewShardedEngine() *ShardedEngine {
	return &ShardedEngine{}
}

// NewShardedEngineWorkers returns a sharded engine with a fixed worker
// count, which tests use to exercise specific segmentations. Counts below 1
// fall back to the automatic choice.
func NewShardedEngineWorkers(workers int) *ShardedEngine {
	if workers < 1 {
		workers = 0
	}
	return &ShardedEngine{workers: workers}
}

// Name implements Engine.
func (e *ShardedEngine) Name() string { return "sharded" }

// Run implements Engine.
//
//ring:coldpath -- per-run entry point; the worker loops below carry their own //ring:hotpath roots
func (e *ShardedEngine) Run(cfg Config, nodes []Node) (*Result, error) {
	return e.RunWith(NewRunState(), cfg, nodes)
}

// shardedMinSegment is the smallest segment size the automatic worker count
// accepts: below it the boundary-handoff overhead dwarfs the per-segment
// work. Explicit worker counts override it (tests shard tiny rings on
// purpose).
const shardedMinSegment = 1024

// effectiveWorkers resolves the worker count for a ring of n processors.
func (e *ShardedEngine) effectiveWorkers(n int) int {
	if e.workers > 0 {
		if e.workers > n {
			return n
		}
		return e.workers
	}
	w := runtime.GOMAXPROCS(0)
	if max := n / shardedMinSegment; w > max {
		w = max
	}
	return w
}

// RunWith implements StatefulEngine.
//
//ring:coldpath -- per-run entry point; the worker loops below carry their own //ring:hotpath roots
func (e *ShardedEngine) RunWith(st *RunState, cfg Config, nodes []Node) (*Result, error) {
	if st == nil {
		st = NewRunState()
	}
	n := len(nodes)
	if cfg.RecordTrace || e.effectiveWorkers(n) < 2 {
		// Traces need one global delivery order; tiny rings are not worth the
		// worker launch. The serial loop under global FIFO is the reference
		// schedule the sharded result is defined against anyway.
		return runLoop(cfg, nodes, st.scheduler(e, NewFIFOScheduler), st)
	}
	cfg, err := cfg.normalize(n)
	if err != nil {
		return nil, err
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, canceledRun(cfg.Ctx)
	}
	if st.shardOwner != e || st.shard == nil {
		st.shard = &shardRun{}
		st.shardOwner = e
	}
	return st.shard.run(e, st, cfg, nodes)
}

// boundarySlots is the capacity of each boundary SPSC ring. Power of two;
// when a burst outruns it the producer spills to a local overflow queue that
// drains, in order, before any younger message, so per-link FIFO holds.
const boundarySlots = 256

// spscSlot is one message slot of a boundary ring. buf is owned by the slot
// and reused: the producer copies the payload in while the slot is free, the
// consumer copies it out into its local arena before advancing head.
type spscSlot struct {
	to    int32
	from  uint8
	nbits int32
	buf   []byte
}

// spscRing is a bounded single-producer single-consumer queue carrying the
// traffic of one boundary link. head and tail are absolute counters; the
// producer owns tail, the consumer owns head.
type spscRing struct {
	slots []spscSlot
	_     [64]byte     // keep head and tail on separate cache lines
	head  atomic.Int64 //ring:owner consumer
	_     [64]byte
	tail  atomic.Int64 //ring:owner producer
}

func (q *spscRing) init() {
	if q.slots == nil {
		q.slots = make([]spscSlot, boundarySlots)
	}
	q.head.Store(0) //ringvet:ignore shardsafe -- init runs before the worker goroutines exist
	q.tail.Store(0) //ringvet:ignore shardsafe -- init runs before the worker goroutines exist
}

// freeSlots reports how many pushes currently fit (producer side).
//
//ring:producer
func (q *spscRing) freeSlots() int {
	return len(q.slots) - int(q.tail.Load()-q.head.Load())
}

// push copies the payload into the next slot and publishes it. The caller
// must have checked freeSlots.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
//ring:producer
func (q *spscRing) push(to int, from Direction, payload bits.String) {
	t := q.tail.Load()
	s := &q.slots[t&int64(len(q.slots)-1)]
	raw := payload.Raw()
	if cap(s.buf) < len(raw) {
		s.buf = make([]byte, len(raw)+16)
	}
	s.buf = s.buf[:len(raw)]
	copy(s.buf, raw)
	s.to = int32(to)
	s.from = uint8(from)
	s.nbits = int32(payload.Len())
	q.tail.Store(t + 1)
}

// drainInto moves every published message into the consumer's local queue
// (which copies the payload into its arena) and returns how many it moved.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
//ring:consumer
func (q *spscRing) drainInto(local *fifoQueue) int {
	h := q.head.Load()
	t := q.tail.Load()
	moved := int(t - h)
	for ; h < t; h++ {
		s := &q.slots[h&int64(len(q.slots)-1)]
		local.push(int(s.to), Direction(s.from), bits.View(s.buf, int(s.nbits)))
		// The payload is copied into the local arena; only now may the
		// producer reuse the slot.
		q.head.Store(h + 1)
	}
	return moved
}

// shardBoundary is the producer side of one outgoing boundary link: the SPSC
// ring plus the overflow queue used when the ring is momentarily full.
type shardBoundary struct {
	ring  spscRing
	spill fifoQueue //ring:owner producer
}

// send hands one boundary message over, preserving per-link FIFO: the spill
// always drains before a younger message is pushed.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
//ring:producer
func (b *shardBoundary) send(to int, from Direction, payload bits.String) {
	b.flushSpill()
	if b.spill.len() == 0 && b.ring.freeSlots() > 0 {
		b.ring.push(to, from, payload)
		return
	}
	b.spill.push(to, from, payload)
}

// flushSpill moves as much of the overflow queue into the ring as fits.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
//ring:producer
func (b *shardBoundary) flushSpill() {
	for b.spill.len() > 0 && b.ring.freeSlots() > 0 {
		d := b.spill.pop()
		b.ring.push(d.To, d.From, d.Payload)
	}
}

// shardWorker is the per-segment state: the processor range [lo, hi], the
// local delivery queue, the two outgoing boundaries, and the worker's private
// slice of the run accounting (merged into the shared Stats after the join).
type shardWorker struct {
	lo, hi int
	local  fifoQueue
	toNext shardBoundary // messages to processor hi+1 (sent Forward from hi)
	toPrev shardBoundary // messages to processor lo-1 (sent Backward from lo)

	// Accounting accumulated without synchronization and merged by the
	// leader goroutine after the WaitGroup join.
	messages  int
	bitsTotal int
	maxBits   int
	delivered int
	err       error

	_ [64]byte // avoid false sharing between adjacent workers
}

// shardRun is the reusable state of sharded executions, cached inside a
// RunState the same way a scheduler is: backing arrays, boundary rings and
// spill arenas grown in one run are reused by the next.
type shardRun struct {
	workers []shardWorker

	cfg   Config
	n     int
	nodes []Node
	stats *Stats

	inflight  atomic.Int64
	delivered atomic.Int64

	// done is the run's stop flag: 0 running, 1 stopped. Whoever wins the CAS
	// owns the shutdown; the verdict and error fields are written before the
	// CAS and read after the WaitGroup join.
	done atomic.Int32

	// verdict is written only by the leader's worker (the only processor
	// allowed to decide) before done is published.
	verdict    Verdict
	hasVerdict bool

	ctxDone <-chan struct{}
}

var _ verdictSink = (*shardRun)(nil)

// decide implements verdictSink. Only the leader's context can reach it, so
// it runs on exactly one goroutine; publication to the other workers happens
// through the done flag.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
func (r *shardRun) decide(proc int, v Verdict) error {
	if r.hasVerdict {
		return ErrAlreadyDecided
	}
	r.verdict = v
	r.hasVerdict = true
	r.done.CompareAndSwap(0, 1)
	return nil
}

// stop requests shutdown without a verdict (quiescence, error, cancellation).
func (r *shardRun) stop() { r.done.CompareAndSwap(0, 1) }

func (r *shardRun) stopped() bool { return r.done.Load() != 0 }

// segmentBounds returns worker w's processor range for n processors split
// into wn contiguous segments (the first n%wn segments get the extra
// processor).
func segmentBounds(w, wn, n int) (lo, hi int) {
	base, rem := n/wn, n%wn
	lo = w*base + min(w, rem)
	size := base
	if w < rem {
		size++
	}
	return lo, lo + size - 1
}

// workerOf returns the worker index owning processor i.
func workerOf(i, wn, n int) int {
	base, rem := n/wn, n%wn
	cut := (base + 1) * rem
	if i < cut {
		return i / (base + 1)
	}
	return rem + (i-cut)/base
}

// reset prepares the cached run structures for a fresh execution with wn
// workers.
func (r *shardRun) reset(cfg Config, nodes []Node, stats *Stats, wn int) {
	r.cfg = cfg
	r.n = len(nodes)
	r.nodes = nodes
	r.stats = stats
	r.inflight.Store(0)
	r.delivered.Store(0)
	r.done.Store(0)
	r.verdict = VerdictNone
	r.hasVerdict = false
	r.ctxDone = nil
	if cfg.Ctx != nil {
		r.ctxDone = cfg.Ctx.Done()
	}
	if len(r.workers) != wn {
		r.workers = make([]shardWorker, wn)
	}
	for w := range r.workers {
		wk := &r.workers[w]
		wk.lo, wk.hi = segmentBounds(w, wn, r.n)
		wk.local.reset()
		wk.toNext.ring.init()
		wk.toNext.spill.reset() //ringvet:ignore shardsafe -- reset runs before the worker goroutines launch
		wk.toPrev.ring.init()
		wk.toPrev.spill.reset() //ringvet:ignore shardsafe -- reset runs before the worker goroutines launch
		wk.messages, wk.bitsTotal, wk.maxBits = 0, 0, 0
		wk.delivered = 0
		wk.err = nil
	}
}

// recordSend accounts one send in the worker's private totals and the shared
// per-link arrays (one writer per link; see Stats).
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
func (wk *shardWorker) recordSend(r *shardRun, to int, arrival Direction, payload bits.String) {
	nb := payload.Len()
	wk.messages++
	wk.bitsTotal += nb
	if nb > wk.maxBits {
		wk.maxBits = nb
	}
	link := linkIndex(to, arrival)
	r.stats.linkMsgs[link]++
	r.stats.linkBits[link] += int64(nb)
}

// dispatch routes, accounts and enqueues the sends of processor fromProc.
// It runs on the worker owning fromProc; cross-segment sends can only cross
// the worker's own two boundaries, because a ring send travels exactly one
// hop.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
func (wk *shardWorker) dispatch(r *shardRun, fromProc int, sends []Send) error {
	for _, s := range sends {
		to, arrival, err := routeSend(r.cfg.Mode, fromProc, s.Dir, r.n)
		if err != nil {
			return err
		}
		wk.recordSend(r, to, arrival, s.Payload)
		r.inflight.Add(1)
		if to >= wk.lo && to <= wk.hi {
			wk.local.push(to, arrival, s.Payload)
		} else if s.Dir == Forward {
			wk.toNext.send(to, arrival, s.Payload)
		} else {
			wk.toPrev.send(to, arrival, s.Payload)
		}
	}
	return nil
}

// budgetBatch is how many deliveries a worker processes between flushes of
// its private delivery count into the shared budget counter. The budget
// check can therefore overshoot MaxMessages by at most budgetBatch per
// worker — it is a runaway guard, not an exact meter, and the serial loop
// remains the reference for exact budget semantics.
const budgetBatch = 16

// loop is one worker's event loop. w is the worker's own index; its incoming
// rings are owned by the two neighbouring workers.
//
//ring:hotpath guard=TestShardedSteadyStateAllocFloor
func (wk *shardWorker) loop(r *shardRun, w int, contexts []Context) {
	wn := len(r.workers)
	inPrev := &r.workers[(w-1+wn)%wn].toNext.ring
	inNext := &r.workers[(w+1)%wn].toPrev.ring
	idle := 0
	sinceBatch := 0
	for {
		if r.stopped() {
			return
		}
		moved := inPrev.drainInto(&wk.local) + inNext.drainInto(&wk.local)
		wk.toNext.flushSpill()
		wk.toPrev.flushSpill()
		if wk.local.len() == 0 {
			if moved == 0 {
				if r.inflight.Load() == 0 {
					r.stop()
					return
				}
				if r.ctxDone != nil {
					select {
					case <-r.ctxDone:
						wk.err = canceledRun(r.cfg.Ctx)
						r.stop()
						return
					default:
					}
				}
				idle++
				if idle > 1024 {
					time.Sleep(10 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
			continue
		}
		idle = 0
		d := wk.local.pop()
		wk.delivered++
		sinceBatch++
		if sinceBatch == budgetBatch {
			sinceBatch = 0
			if r.delivered.Add(budgetBatch) > int64(r.cfg.MaxMessages) {
				//ringvet:ignore allocflow -- error construction ends the run; never on the steady-state path
				wk.err = fmt.Errorf("%w: %d messages", ErrMessageBudgetExceeded, r.cfg.MaxMessages)
				r.stop()
				return
			}
			if r.ctxDone != nil {
				select {
				case <-r.ctxDone:
					wk.err = canceledRun(r.cfg.Ctx)
					r.stop()
					return
				default:
				}
			}
		}
		sends, err := r.nodes[d.To].Receive(&contexts[d.To], d.From, d.Payload)
		if err != nil {
			//ringvet:ignore allocflow -- error construction ends the run; never on the steady-state path
			wk.err = fmt.Errorf("ring: receive at processor %d: %w", d.To, err)
			r.stop()
			return
		}
		if !r.stopped() {
			// Mirrors the serial loop: once a verdict (or failure) landed,
			// response sends are dropped.
			if err := wk.dispatch(r, d.To, sends); err != nil {
				wk.err = err
				r.stop()
				return
			}
		}
		if r.inflight.Add(-1) == 0 {
			r.stop()
			return
		}
	}
}

// run executes one sharded run inside st. The workers race to a legal
// interleaving, but everything in the returned Result is an order-independent
// aggregate, so the run is deterministic in the sense the engine documents.
//
//ring:deterministic
func (r *shardRun) run(e *ShardedEngine, st *RunState, cfg Config, nodes []Node) (*Result, error) {
	n := len(nodes)
	wn := e.effectiveWorkers(n)
	lp := &st.loop
	lp.reset(cfg, n)
	lp.stats.ensureLinks() // workers write the link arrays; allocate before they race
	r.reset(cfg, nodes, &lp.stats, wn)

	contexts := st.resetContexts(n, r)

	// Start phase: serial, before any worker exists, so it can push straight
	// into the owning workers' local queues with no synchronization. This is
	// the same legal prefix the serial loop uses.
	for i := 0; i < n; i++ {
		if cfg.Initiators == LeaderOnly && i != LeaderIndex {
			continue
		}
		//ringvet:ignore allocflow -- Start runs once per node at run begin, before the delivery loop
		sends, err := nodes[i].Start(&contexts[i])
		if err != nil {
			return nil, fmt.Errorf("ring: start of processor %d: %w", i, err)
		}
		// Route each start send directly into the receiver's owning worker.
		for _, s := range sends {
			to, arrival, err := routeSend(cfg.Mode, i, s.Dir, n)
			if err != nil {
				return nil, err
			}
			wk := &r.workers[workerOf(i, wn, n)]
			wk.recordSend(r, to, arrival, s.Payload)
			r.inflight.Add(1)
			r.workers[workerOf(to, wn, n)].local.push(to, arrival, s.Payload)
		}
		if r.hasVerdict {
			break
		}
	}

	if !r.hasVerdict && r.inflight.Load() > 0 {
		var wg sync.WaitGroup
		for w := range r.workers {
			wk := &r.workers[w]
			wg.Add(1)
			//ring:ordered -- workers race to a legal asynchronous schedule; Result/Stats are order-independent aggregates (see ShardedEngine)
			go func(w int) {
				defer wg.Done()
				wk.loop(r, w, contexts)
			}(w)
		}
		wg.Wait()
	}

	// Merge the workers' private totals into the shared Stats.
	for w := range r.workers {
		wk := &r.workers[w]
		lp.stats.Messages += wk.messages
		lp.stats.Bits += wk.bitsTotal
		if wk.maxBits > lp.stats.MaxMessageBits {
			lp.stats.MaxMessageBits = wk.maxBits
		}
	}
	for w := range r.workers {
		if err := r.workers[w].err; err != nil {
			return nil, err
		}
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, canceledRun(cfg.Ctx)
	}
	verdict := VerdictNone
	if r.hasVerdict {
		verdict = r.verdict
	}
	lp.verdict = verdict
	if cfg.RequireVerdict && verdict == VerdictNone {
		return nil, ErrNoVerdict
	}
	return &Result{Verdict: verdict, Stats: &lp.stats}, nil
}
