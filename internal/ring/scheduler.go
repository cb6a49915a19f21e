package ring

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// ErrUnknownSchedule is returned when a schedule name is not one of
// ScheduleNames (or their aliases). It wraps the detailed lookup errors of
// NewSchedulerByName and NewEngineByName, so callers classify failures with
// errors.Is instead of string matching.
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
// schedule the seed SequentialEngine hardcoded. One shared queue suffices:
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
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop
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
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop,TestEngineLoopAllocRegressionGuard
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
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	} else {
		s.rng.Seed(s.seed)
	}
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
	n := len(s.links.head)
	for i := 0; i < n; i++ {
		link := s.cursor + i
		if link >= n {
			link -= n
		}
		if !s.links.empty(link) {
			s.cursor = link + 1
			if s.cursor == n {
				s.cursor = 0
			}
			return s.links.pop(link), true
		}
	}
	// Unreachable: pending > 0 implies some link is non-empty.
	return Delivery{}, false
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

// ScheduleNames lists the schedule names accepted by NewEngineByName (and
// hence by every -schedule flag and the facade's WithSchedule option).
// "sharded" is special: it names the segment-sharded engine rather than a
// scheduler-backed one, so NewSchedulerByName accepts every name but it.
// The tail of the list is the fault axis — schedules that vary delivery
// fate, not just delivery order (see fault.go); use
// ScheduleDeliveryGuarantee to classify what each one still promises.
func ScheduleNames() []string {
	return []string{
		"sequential", "random", "round-robin", "adversarial", "sharded",
		"lossy", "duplicating", "crash-restart", "crash-repair",
	}
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
	switch name {
	case "fifo":
		return "sequential"
	case "random-order":
		return "random"
	case "bounded-delay":
		return "adversarial"
	case "drop":
		return "lossy"
	case "at-least-once":
		return "duplicating"
	case "crash":
		return "crash-repair"
	case "self-stabilizing":
		return "crash-restart"
	default:
		return name
	}
}

// ScheduleUsesSeed reports whether the named schedule's execution depends on
// the seed. Randomized delivery order does, and so does every fault
// schedule: their drop/duplicate/crash fates are seeded draws. Results under
// the remaining schedules are seed-independent, which is what lets the
// serving tier memoize them under one seed. A new seeded schedule must be
// added here as well as to the factory table below.
func ScheduleUsesSeed(name string) bool {
	switch CanonicalScheduleName(name) {
	case "random", "lossy", "duplicating", "crash-restart", "crash-repair":
		return true
	}
	return false
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
	switch CanonicalScheduleName(name) {
	case "duplicating":
		return AtLeastOnce
	case "crash-repair":
		return CrashProne
	}
	return ExactlyOnce
}

// schedulerFactoryByName is the single name → scheduler table behind both
// NewSchedulerByName and NewEngineByName; a new schedule needs exactly one
// case here plus its ScheduleNames entry (and, if seeded, a
// ScheduleUsesSeed case). The seed drives randomized schedules and is
// ignored by deterministic ones. Aliases are folded by
// CanonicalScheduleName, the only place they are spelled.
func schedulerFactoryByName(name string, seed int64) (func() Scheduler, error) {
	switch CanonicalScheduleName(name) {
	case "sequential":
		return NewFIFOScheduler, nil
	case "random":
		return func() Scheduler { return NewRandomScheduler(seed) }, nil
	case "round-robin":
		return NewRoundRobinScheduler, nil
	case "adversarial":
		return func() Scheduler { return NewAdversarialScheduler(DefaultAdversarialBound) }, nil
	case "lossy":
		return func() Scheduler { return NewLossyScheduler(seed, DefaultDropRate, DefaultMaxRetransmits) }, nil
	case "duplicating":
		return func() Scheduler { return NewDuplicatingScheduler(seed, DefaultDuplicateRate) }, nil
	case "crash-restart":
		return func() Scheduler { return NewCrashRestartScheduler(seed) }, nil
	case "crash-repair":
		return func() Scheduler { return NewCrashRepairScheduler(seed) }, nil
	default:
		return nil, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownSchedule, name, strings.Join(ScheduleNames(), ", "))
	}
}

// NewSchedulerByName builds a built-in scheduler by name.
func NewSchedulerByName(name string, seed int64) (Scheduler, error) {
	factory, err := schedulerFactoryByName(name, seed)
	if err != nil {
		return nil, err
	}
	return factory(), nil
}

// NewEngineByName resolves a schedule name (see ScheduleNames) to a
// ready-to-run engine. This is the single lookup behind the cmd tools'
// -schedule flags and the facade's WithSchedule option. The names with
// dedicated engine types are special-cased; everything else is resolved
// through the shared scheduler table.
//
//ring:coldpath -- engine construction, once per run or batch worker
func NewEngineByName(name string, seed int64) (Engine, error) {
	switch CanonicalScheduleName(name) {
	case "sequential":
		return NewSequentialEngine(), nil
	case "random":
		return NewRandomOrderEngine(seed), nil
	case "sharded":
		return NewShardedEngine(), nil
	}
	factory, err := schedulerFactoryByName(name, seed)
	if err != nil {
		return nil, err
	}
	return NewScheduledEngine(factory().Name(), factory), nil
}
