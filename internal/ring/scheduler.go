package ring

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// ErrUnknownSchedule is returned when a schedule name is not one of
// ScheduleNames (or their aliases). NewEngineByName's detailed lookup error
// wraps it, so callers classify failures with errors.Is instead of string
// matching.
var ErrUnknownSchedule = errors.New("ring: unknown schedule")

// Scheduler chooses the order in which pending messages are delivered by the
// shared event loop (runLoop). The paper's bounds hold under every legal
// asynchronous schedule, so the schedule is an experiment axis, not an engine
// property: one loop, many schedulers.
//
// Implementations must preserve FIFO order within each directed link — links
// are channels and never reorder — but may interleave different links
// arbitrarily; every such interleaving is a legal execution of the
// asynchronous model.
type Scheduler interface {
	// Name identifies the schedule in reports and flag values.
	Name() string
	// Reset prepares the scheduler for a fresh run over `links` directed
	// links (see linkIndex), discarding any state from a previous run.
	Reset(links int)
	// Push appends d to the FIFO queue of the given link.
	Push(link int, d Delivery)
	// Next removes and returns the next delivery to perform; ok is false
	// when no message is pending.
	Next() (d Delivery, ok bool)
}

// fifoScheduler delivers messages in global first-in-first-out order — the
// "sequential" schedule. One shared queue suffices:
// global FIFO trivially preserves per-link FIFO. The queue is the
// struct-of-arrays fifoQueue, so the default engine's in-flight messages
// live in one flat arena.
type fifoScheduler struct {
	q fifoQueue
}

// NewFIFOScheduler returns the deterministic global-FIFO schedule.
func NewFIFOScheduler() Scheduler { return &fifoScheduler{} }

func (s *fifoScheduler) Name() string              { return "fifo" }
func (s *fifoScheduler) Reset(links int)           { s.q.reset() }
func (s *fifoScheduler) Push(link int, d Delivery) { s.q.push(d.To, d.From, d.Payload) }

func (s *fifoScheduler) Next() (Delivery, bool) {
	if s.q.len() == 0 {
		return Delivery{}, false
	}
	return s.q.pop(), true
}

// handoffScheduler is implemented by the schedulers whose next choice is
// forced whenever they hold no message: pushing one message into an idle
// queue and asking for the next delivery must return that very message. The
// event loop relies on it to hand a lone send straight to its receiver
// without the Push/Next round trip (see runLoopFrom). Only the global-FIFO
// and seeded random schedules implement it; every other scheduler — and any
// type wrapping one, since the methods are unexported — keeps the queue path,
// because the loop cannot see what its Next does with a lone message.
type handoffScheduler interface {
	Scheduler
	// idle reports whether the scheduler holds no pending message.
	idle() bool
	// forced accounts one delivery the loop performed without Next, as if
	// Next had chosen it from a single pending message.
	forced()
}

func (s *fifoScheduler) idle() bool { return s.q.len() == 0 }
func (s *fifoScheduler) forced()    {}

// randomScheduler delivers the head of a uniformly random non-empty link,
// driven by a seeded generator so runs are reproducible.
//
// A choice among one non-empty link is forced, yet the seed schedule drew
// Intn(1) for it, which consumes one value of the source. To stay
// draw-for-draw identical without paying for those draws, the scheduler only
// counts them (owed) and replays them just before its next real choice; the
// generator is allocated once per scheduler and re-seeded at the first real
// choice of each run, so a run that never chooses — every single-token
// recognizer — never touches it.
type randomScheduler struct {
	seed     int64
	rng      *rand.Rand
	seeded   bool // rng has been re-seeded for the current run
	owed     int  // forced draws not yet replayed on rng
	links    linkQueues
	nonEmpty []int
}

// NewRandomScheduler returns a seeded random-order schedule.
func NewRandomScheduler(seed int64) Scheduler { return &randomScheduler{seed: seed} }

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *randomScheduler) Name() string { return fmt.Sprintf("random(seed=%d)", s.seed) }

func (s *randomScheduler) Reset(links int) {
	s.seeded = false
	s.owed = 0
	s.links.reset(links)
	s.nonEmpty = s.nonEmpty[:0]
}

func (s *randomScheduler) idle() bool { return len(s.nonEmpty) == 0 }
func (s *randomScheduler) forced()    { s.owed++ }

// Push enqueues d and tracks the link on the non-empty list.
//
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (s *randomScheduler) Push(link int, d Delivery) {
	if s.links.push(link, d) {
		//ring:prealloc -- nonEmpty keeps its capacity across Reset; growth is first-run only
		s.nonEmpty = append(s.nonEmpty, link)
	}
}

// Next delivers the head of a uniformly random non-empty link. The generator
// is seeded per run, so the schedule is reproducible.
//
//ring:deterministic
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (s *randomScheduler) Next() (Delivery, bool) {
	if len(s.nonEmpty) == 0 {
		return Delivery{}, false
	}
	i := 0
	if len(s.nonEmpty) == 1 {
		s.owed++
	} else {
		if !s.seeded {
			s.reseed()
		}
		for ; s.owed > 0; s.owed-- {
			s.rng.Int63() // the value Intn(1) would have drawn
		}
		i = s.rng.Intn(len(s.nonEmpty))
	}
	link := s.nonEmpty[i]
	d := s.links.pop(link)
	if s.links.empty(link) {
		s.nonEmpty[i] = s.nonEmpty[len(s.nonEmpty)-1]
		s.nonEmpty = s.nonEmpty[:len(s.nonEmpty)-1]
	}
	return d, true
}

// reseed restarts the generator from the seed for the current run.
//
//ring:coldpath -- once per run, at its first real choice; the generator itself is allocated once per scheduler
func (s *randomScheduler) reseed() {
	s.rng = reseeded(s.rng, s.seed)
	s.seeded = true
}

// roundRobinScheduler cycles over the directed links in a fixed rotation,
// delivering at most one message per link per turn. It approximates the
// synchronous round structure distributed algorithms are often (incorrectly)
// reasoned about in, while remaining a legal asynchronous schedule.
type roundRobinScheduler struct {
	links  linkQueues
	cursor int
}

// NewRoundRobinScheduler returns the round-robin-by-link schedule.
func NewRoundRobinScheduler() Scheduler { return &roundRobinScheduler{} }

func (s *roundRobinScheduler) Name() string { return "round-robin" }

func (s *roundRobinScheduler) Reset(links int) {
	s.links.reset(links)
	s.cursor = 0
}

func (s *roundRobinScheduler) Push(link int, d Delivery) { s.links.push(link, d) }

func (s *roundRobinScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 {
		return Delivery{}, false
	}
	var link int
	link, s.cursor = s.links.rotate(s.cursor)
	return s.links.pop(link), true
}

// DefaultAdversarialBound is the fairness bound used when an adversarial
// schedule is selected by name.
const DefaultAdversarialBound = 8

// adversarialScheduler is a bounded-delay adversary. It prefers the link that
// became non-empty most recently (newest-first — the exact opposite of FIFO),
// which maximally delays old messages and flushes out algorithms that
// silently assume global FIFO delivery. Every bound-th delivery it instead
// serves the longest-waiting link, so no message is delayed forever and the
// schedule stays legal under the paper's finite-delay asynchronous model.
//
// Bookkeeping: every non-empty link keeps at least one live hint on the
// newest-first stack and one in the oldest-first queue. Hints for links that
// were drained through the other structure go stale and are skipped on pop;
// a stale hint can at worst cause a link to be offered again, never reorder
// a link's own FIFO queue.
type adversarialScheduler struct {
	bound    int
	links    linkQueues
	newest   []int // stack of hints, newest activation last
	oldest   []int // queue of hints, oldest activation first
	oldestAt int   // head index into oldest
	count    int
}

// NewAdversarialScheduler returns a bounded-delay adversarial schedule.
// Bounds below 1 fall back to DefaultAdversarialBound.
func NewAdversarialScheduler(bound int) Scheduler {
	if bound < 1 {
		bound = DefaultAdversarialBound
	}
	return &adversarialScheduler{bound: bound}
}

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *adversarialScheduler) Name() string {
	return fmt.Sprintf("adversarial(bound=%d)", s.bound)
}

func (s *adversarialScheduler) Reset(links int) {
	s.links.reset(links)
	s.newest = s.newest[:0]
	s.oldest = s.oldest[:0]
	s.oldestAt = 0
	s.count = 0
}

func (s *adversarialScheduler) Push(link int, d Delivery) {
	if s.links.push(link, d) {
		s.newest = append(s.newest, link) //ring:prealloc -- capacity survives Reset; growth is first-run only
		s.oldest = append(s.oldest, link) //ring:prealloc -- capacity survives Reset; growth is first-run only
	}
}

// Next serves the newest-activated link, except every bound-th delivery,
// which serves the oldest — a deterministic schedule despite its hostility.
//
//ring:deterministic
func (s *adversarialScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 {
		return Delivery{}, false
	}
	s.count++
	var link int
	if s.count%s.bound == 0 {
		link = s.popOldest()
		d := s.links.pop(link)
		if !s.links.empty(link) {
			s.oldest = append(s.oldest, link) //ring:prealloc -- re-pushes a hint just popped; capacity survives Reset, growth is first-run only
		}
		return d, true
	}
	link = s.popNewest()
	d := s.links.pop(link)
	if !s.links.empty(link) {
		s.newest = append(s.newest, link) //ring:prealloc -- re-pushes a hint just popped; capacity survives Reset, growth is first-run only
	}
	return d, true
}

// popNewest pops hints off the stack until one names a non-empty link.
func (s *adversarialScheduler) popNewest() int {
	for {
		link := s.newest[len(s.newest)-1]
		s.newest = s.newest[:len(s.newest)-1]
		if !s.links.empty(link) {
			return link
		}
	}
}

// popOldest advances the queue head past stale hints to a non-empty link.
func (s *adversarialScheduler) popOldest() int {
	for {
		link := s.oldest[s.oldestAt]
		s.oldestAt++
		if s.oldestAt > len(s.oldest)/2 {
			s.oldest = append(s.oldest[:0], s.oldest[s.oldestAt:]...)
			s.oldestAt = 0
		}
		if !s.links.empty(link) {
			return link
		}
	}
}

// scheduleRow is one canonical schedule of the catalog. A row states only
// what no scheduler type can: its name, the aliases that fold onto it,
// whether its execution depends on the seed, and how to build its engine.
// What delivery the schedule guarantees and whether it can checkpoint are
// read off the engine the row builds, once, when the table is initialised
// (see newScheduleTable), so the scheduler types are the only place those
// facts are declared.
type scheduleRow struct {
	name    string
	aliases []string
	seeded  bool
	engine  func(seed int64) Engine

	guarantee    DeliveryGuarantee
	prefixStable bool
	// shared is the one engine of a seedless row, handed to every caller.
	// Engines are immutable, and a RunState keys its cached scheduler by the
	// engine that built it, so callers resolving a name per run still reuse
	// one scheduler.
	shared Engine
}

// schedules is the catalog in ScheduleNames order: the delivery-order axis,
// then the fault axis (schedules that vary delivery fate, see fault.go).
var schedules = newScheduleTable([]scheduleRow{
	{name: "sequential", aliases: []string{"fifo"}, engine: func(int64) Engine { return sequential }},
	{name: "random", aliases: []string{"random-order"}, seeded: true, engine: scheduled(NewRandomScheduler)},
	{name: "round-robin", engine: scheduled(func(int64) Scheduler { return NewRoundRobinScheduler() })},
	{name: "adversarial", aliases: []string{"bounded-delay"}, engine: scheduled(func(int64) Scheduler {
		return NewAdversarialScheduler(DefaultAdversarialBound)
	})},
	// The segment-sharded engine is not scheduler-backed: its workers race,
	// so it keeps exactly-once delivery but no order a checkpoint could
	// replay.
	{name: "sharded", engine: func(int64) Engine { return NewShardedEngine() }},
	{name: "lossy", aliases: []string{"drop"}, seeded: true, engine: scheduled(func(seed int64) Scheduler {
		return NewLossyScheduler(seed, DefaultDropRate, DefaultMaxRetransmits)
	})},
	{name: "duplicating", aliases: []string{"at-least-once"}, seeded: true, engine: scheduled(func(seed int64) Scheduler {
		return NewDuplicatingScheduler(seed, DefaultDuplicateRate)
	})},
	{name: "crash-restart", aliases: []string{"self-stabilizing"}, seeded: true, engine: scheduled(NewCrashRestartScheduler)},
	{name: "crash-repair", aliases: []string{"crash"}, seeded: true, engine: scheduled(NewCrashRepairScheduler)},
})

// sequential is the engine of the "sequential" row: the shared event loop
// under global FIFO. For the paper's unidirectional leader-initiated
// algorithms that is exactly the unique execution described in Section 2.
var sequential = NewScheduledEngine("sequential", NewFIFOScheduler)

// scheduled builds the engines of a scheduler-backed row: the shared event
// loop under a fresh scheduler per run, labelled with the scheduler's name.
func scheduled(build func(seed int64) Scheduler) func(int64) Engine {
	return func(seed int64) Engine {
		factory := func() Scheduler { return build(seed) }
		return NewScheduledEngine(factory().Name(), factory)
	}
}

// newScheduleTable fills in what each row's engine declares: its delivery
// guarantee (the scheduler's DeliveryGuarantee method, see
// EngineDeliveryGuarantee) and its prefix stability (whether the scheduler
// implements checkpointableScheduler). A seedless row keeps the engine it
// built as its shared one.
func newScheduleTable(rows []scheduleRow) []scheduleRow {
	for i := range rows {
		r := &rows[i]
		e := r.engine(0)
		r.guarantee = EngineDeliveryGuarantee(e)
		if se, ok := e.(*ScheduledEngine); ok {
			_, r.prefixStable = se.factory().(checkpointableScheduler)
		}
		if !r.seeded {
			r.shared = e
		}
	}
	return rows
}

// scheduleRowOf returns the row a canonical name or an alias names, or nil.
func scheduleRowOf(name string) *scheduleRow {
	for i := range schedules {
		if r := &schedules[i]; r.name == name || slices.Contains(r.aliases, name) {
			return r
		}
	}
	return nil
}

// ScheduleNames lists the schedule names accepted by NewEngineByName (and
// hence by every -schedule flag and the facade's WithSchedule option). The
// tail of the list is the fault axis — schedules that vary delivery fate,
// not just delivery order (see fault.go); use ScheduleDeliveryGuarantee to
// classify what each one still promises.
func ScheduleNames() []string {
	names := make([]string, len(schedules))
	for i := range schedules {
		names[i] = schedules[i].name
	}
	return names
}

// CanonicalScheduleName folds the accepted aliases — "fifo" for
// "sequential", "random-order" for "random", "bounded-delay" for
// "adversarial", "drop" for "lossy", "at-least-once" for "duplicating",
// "crash" for "crash-repair" and "self-stabilizing" for "crash-restart" —
// onto the canonical names of ScheduleNames. Unknown names (and the empty
// string) pass through unchanged; lookup functions remain the validators.
// Anything that keys state by schedule name (the serving tier's memo cache,
// a client pool) should key by the canonical name so aliases converge on one
// entry.
func CanonicalScheduleName(name string) string {
	if r := scheduleRowOf(name); r != nil {
		return r.name
	}
	return name
}

// ScheduleUsesSeed reports whether the named schedule's execution depends on
// the seed. Randomized delivery order does, and so does every fault
// schedule: their drop/duplicate/crash fates are seeded draws. Results under
// the remaining schedules are seed-independent, which is what lets the
// serving tier memoize them under one seed. Unknown names report false.
func ScheduleUsesSeed(name string) bool {
	r := scheduleRowOf(name)
	return r != nil && r.seeded
}

// ScheduleDeliveryGuarantee classifies the delivery guarantee of a schedule
// name (canonical names and aliases of ScheduleNames): what the network
// still promises once the schedule has had its way. Everything predating the
// fault axis — and the lossy and crash-restart schedules, whose faults are
// absorbed by the link layer — upholds the paper's exactly-once model;
// consumers that require bit-identical results across schedules should
// filter on ExactlyOnce rather than enumerate names. Unknown names classify
// as ExactlyOnce; the lookup functions remain the validators.
func ScheduleDeliveryGuarantee(name string) DeliveryGuarantee {
	if r := scheduleRowOf(name); r != nil {
		return r.guarantee
	}
	return ExactlyOnce
}

// ScheduleIsPrefixStable reports whether the named schedule (canonical names
// and aliases of ScheduleNames) delivers messages in an order that depends
// only on the sequence of sends so far — never on the word, the seed, or
// real-time interleaving. Only such schedules may capture and resume
// checkpoints (see checkpointableScheduler for which qualify and why).
// Unknown names report false.
func ScheduleIsPrefixStable(name string) bool {
	r := scheduleRowOf(name)
	return r != nil && r.prefixStable
}

// NewSequentialEngine returns the deterministic global-FIFO engine, the
// "sequential" schedule. Every call returns the same engine, which captures
// and resumes prefix checkpoints.
func NewSequentialEngine() *ScheduledEngine { return sequential }

// NewEngineByName resolves a schedule name (see ScheduleNames) to a
// ready-to-run engine. This is the single lookup behind the cmd tools'
// -schedule flags and the facade's WithSchedule option. A seedless schedule
// resolves to one shared engine; a seeded one builds an engine for the seed.
//
//ring:coldpath -- engine construction, once per run or batch worker
func NewEngineByName(name string, seed int64) (Engine, error) {
	r := scheduleRowOf(name)
	switch {
	case r == nil:
		return nil, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownSchedule, name, strings.Join(ScheduleNames(), ", "))
	case r.shared != nil:
		return r.shared, nil
	}
	return r.engine(seed), nil
}
