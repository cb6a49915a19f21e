package ring

import (
	"fmt"
	"math/rand"

	"ringlang/internal/bits"
)

// This file extends the schedule axis from "delivery order" to "delivery
// fate". The paper (and every schedule in scheduler.go) assumes reliable
// exactly-once FIFO links; the schedulers here break that assumption in
// controlled, seeded ways so the same algorithms, tests and sweeps can
// measure what each reliability guarantee is worth:
//
//   - lossy: frames are dropped in transit and retransmitted by the link
//     layer (go-back-N with the frame retained at the sender). The algorithm
//     still observes exactly-once per-link FIFO delivery, so verdicts and
//     bit totals match every reliable schedule; the retransmission overhead
//     is reported separately in FaultReport.
//   - duplicating: at-least-once delivery. A delivered message may be
//     delivered again before the link's next message. Algorithms that do not
//     deduplicate (see WithDedup) observe a network the paper never
//     promised them.
//   - crash-restart: one processor stops receiving at a seeded delivery
//     index and restarts after a seeded outage; frames addressed to it are
//     buffered at the link layer and replayed in order. Pure delay — a legal
//     asynchronous schedule, so results match the reliable axis.
//   - crash-repair: one processor fail-stops at a seeded delivery index and
//     the ring is spliced around it; in-flight and future frames addressed
//     to it are rerouted to the next processor in their direction of travel.
//     The ring the algorithm runs on is no longer the ring it was built for.

// DeliveryGuarantee classifies what a schedule promises about message
// delivery. It is the axis recognizers declare tolerance against (see the
// core package's DeliveryTolerant): the zero value is the paper's model.
type DeliveryGuarantee int

const (
	// ExactlyOnce is the paper's model: every sent message is delivered
	// exactly once, in per-link FIFO order, to the processor it was sent to.
	ExactlyOnce DeliveryGuarantee = iota
	// AtLeastOnce means a message may be delivered more than once (duplicates
	// arrive on the same link, before that link's next message); no message
	// is lost.
	AtLeastOnce
	// CrashProne means a processor may permanently fail and the ring be
	// repaired around it: messages can be delivered to a different processor
	// than they were sent to, and the crashed processor's state is lost.
	CrashProne
)

// String implements fmt.Stringer.
func (g DeliveryGuarantee) String() string {
	switch g {
	case ExactlyOnce:
		return "exactly-once"
	case AtLeastOnce:
		return "at-least-once"
	case CrashProne:
		return "crash-prone"
	default:
		return "unknown"
	}
}

// DeliveryGuaranteed is implemented by schedulers and engines whose delivery
// fate differs from the paper's reliable exactly-once model.
type DeliveryGuaranteed interface {
	// DeliveryGuarantee reports the delivery guarantee the implementation
	// upholds.
	DeliveryGuarantee() DeliveryGuarantee
}

// EngineDeliveryGuarantee reports the delivery guarantee of an engine:
// engines that do not declare one (every engine predating the fault axis)
// uphold the paper's exactly-once model.
func EngineDeliveryGuarantee(e Engine) DeliveryGuarantee {
	if g, ok := e.(DeliveryGuaranteed); ok {
		return g.DeliveryGuarantee()
	}
	return ExactlyOnce
}

// FaultReport is the fault accounting of one execution under a
// fault-injecting schedule. Stats counts what the algorithm paid (each
// logical message once, at send time); FaultReport counts what the unreliable
// network added on top — retransmitted and duplicated frames never appear in
// Stats, because the algorithm did not send them.
type FaultReport struct {
	// Dropped is the number of frames lost in transit and retransmitted;
	// RetransmitBits is the payload volume those retransmissions carried.
	Dropped        int
	RetransmitBits int
	// Duplicates is the number of extra deliveries performed;
	// DuplicateBits is their payload volume.
	Duplicates    int
	DuplicateBits int
	// Crashed lists the processors that crashed during the run, in crash
	// order (at most one for the built-in crash schedules).
	Crashed []int
	// Rerouted is the number of deliveries spliced past a crashed processor
	// (crash-repair); Deferred is the number of delivery offers held back
	// while a crashed processor was down (crash-restart).
	Rerouted int
	Deferred int
}

// faultReporter is the unexported hook runLoop harvests fault accounting
// through after the delivery loop completes.
type faultReporter interface {
	// reportFaults copies the run's fault accounting into fr, which stays
	// valid after the scheduler is reset or reused. A crashed processor is
	// appended to crashed, room allocated together with fr.
	reportFaults(fr *FaultReport, crashed []int)
}

// faultedResult is a Result allocated together with the fault report a
// fault-injecting schedule attaches to it, and room for the one processor a
// built-in crash schedule fails: a run under a fault schedule allocates one
// object for its outcome, like a run under a reliable one.
type faultedResult struct {
	Result
	faults  FaultReport
	crashed [1]int
}

// reseeded returns rng restarted from seed, allocating the generator and
// its 4.9 KB source only when rng is nil, on a scheduler's first run.
// Re-seeding yields the same draws as a fresh generator.
func reseeded(rng *rand.Rand, seed int64) *rand.Rand {
	if rng == nil {
		return rand.New(rand.NewSource(seed))
	}
	rng.Seed(seed)
	return rng
}

// Defaults for the by-name fault schedules (see NewEngineByName). One in
// eight offers dropping or duplicating is high for a real network but low
// enough that fault-free and faulty executions stay the same order of
// magnitude; three retransmissions bound the worst-case delay of one frame.
const (
	DefaultDropRate       = 0.125
	DefaultMaxRetransmits = 3
	DefaultDuplicateRate  = 0.125
)

// lossyScheduler drops the head frame of a link with probability dropRate at
// each delivery offer, capped at maxRetransmits consecutive drops per frame
// so every frame is eventually delivered. A dropped frame stays at the head
// of its link — the link layer retransmits it, go-back-N style — so the
// algorithm observes exactly-once per-link FIFO delivery and the run's
// verdict and Stats match the reliable schedules exactly; only FaultReport
// sees the drops. Offers cycle over the links round-robin, and the seeded
// generator makes the whole fate sequence reproducible. A dropped frame that
// was the only one pending is offered again at once: the rotation would
// scan every link to come back to it.
type lossyScheduler struct {
	seed           int64
	dropRate       float64
	maxRetransmits int

	rng     *rand.Rand
	links   linkQueues
	cursor  int
	dropsAt []int32 // consecutive drops of the current head frame, per link
	faults  FaultReport
}

// NewLossyScheduler returns the seeded lossy schedule. Rates outside (0, 1)
// fall back to DefaultDropRate; maxRetransmits below 1 falls back to
// DefaultMaxRetransmits.
func NewLossyScheduler(seed int64, dropRate float64, maxRetransmits int) Scheduler {
	if dropRate <= 0 || dropRate >= 1 {
		dropRate = DefaultDropRate
	}
	if maxRetransmits < 1 {
		maxRetransmits = DefaultMaxRetransmits
	}
	return &lossyScheduler{seed: seed, dropRate: dropRate, maxRetransmits: maxRetransmits}
}

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *lossyScheduler) Name() string {
	return fmt.Sprintf("lossy(seed=%d,drop=%g)", s.seed, s.dropRate)
}

func (s *lossyScheduler) DeliveryGuarantee() DeliveryGuarantee { return ExactlyOnce }

func (s *lossyScheduler) reportFaults(fr *FaultReport, _ []int) { *fr = s.faults }

func (s *lossyScheduler) Reset(links int) {
	s.rng = reseeded(s.rng, s.seed)
	s.links.reset(links)
	s.cursor = 0
	if cap(s.dropsAt) >= links {
		s.dropsAt = s.dropsAt[:links]
		for i := range s.dropsAt {
			s.dropsAt[i] = 0
		}
	} else {
		s.dropsAt = make([]int32, links)
	}
	s.faults = FaultReport{}
}

func (s *lossyScheduler) Push(link int, d Delivery) { s.links.push(link, d) }

// Next offers the next non-empty link in rotation and rolls the drop fate of
// its head frame. Termination: pending is fixed within one call and each
// offer either delivers or increments a per-frame drop counter that is
// capped, so the loop always delivers while messages pend.
//
//ring:deterministic
func (s *lossyScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 {
		return Delivery{}, false
	}
	var link int
	link, s.cursor = s.links.rotate(s.cursor)
	for int(s.dropsAt[link]) < s.maxRetransmits && s.rng.Float64() < s.dropRate {
		s.dropsAt[link]++
		s.faults.Dropped++
		s.faults.RetransmitBits += s.links.peek(link).Len()
		if s.links.pending > 1 {
			link, s.cursor = s.links.rotate(s.cursor)
		}
	}
	s.dropsAt[link] = 0
	return s.links.pop(link), true
}

// duplicatingScheduler delivers every message at least once: with
// probability dupRate a delivered message is scheduled for one extra
// delivery on the same link, performed before that link's next message — so
// per-link order is m, m, m' (duplicates are adjacent per link, as a
// retransmitting sender that missed an ack would produce). Duplicates are
// never themselves duplicated, which bounds the run at twice the message
// count. The duplicate's payload is snapshotted at schedule time: the
// original may alias the sender's scratch writer, which the sender is free
// to overwrite once its message has been delivered.
type duplicatingScheduler struct {
	seed    int64
	dupRate float64

	rng        *rand.Rand
	links      linkQueues
	cursor     int
	dup        []bits.String // pending duplicate per link
	dupSet     []bool
	dupPending int
	faults     FaultReport
}

// NewDuplicatingScheduler returns the seeded at-least-once schedule. Rates
// outside (0, 1) fall back to DefaultDuplicateRate.
func NewDuplicatingScheduler(seed int64, dupRate float64) Scheduler {
	if dupRate <= 0 || dupRate >= 1 {
		dupRate = DefaultDuplicateRate
	}
	return &duplicatingScheduler{seed: seed, dupRate: dupRate}
}

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *duplicatingScheduler) Name() string {
	return fmt.Sprintf("duplicating(seed=%d,dup=%g)", s.seed, s.dupRate)
}

func (s *duplicatingScheduler) DeliveryGuarantee() DeliveryGuarantee { return AtLeastOnce }

func (s *duplicatingScheduler) reportFaults(fr *FaultReport, _ []int) { *fr = s.faults }

func (s *duplicatingScheduler) Reset(links int) {
	s.rng = reseeded(s.rng, s.seed)
	s.links.reset(links)
	s.cursor = 0
	// Release stale duplicate payloads so retained capacity never pins a
	// previous run's buffers.
	for i := range s.dup {
		s.dup[i] = bits.Empty()
		s.dupSet[i] = false
	}
	if cap(s.dup) >= links {
		s.dup = s.dup[:links]
		s.dupSet = s.dupSet[:links]
	} else {
		s.dup = make([]bits.String, links)
		s.dupSet = make([]bool, links)
	}
	s.dupPending = 0
	s.faults = FaultReport{}
}

func (s *duplicatingScheduler) Push(link int, d Delivery) { s.links.push(link, d) }

// Next cycles over the links round-robin; a link with a pending duplicate
// redelivers it before its next queued message.
//
//ring:deterministic
func (s *duplicatingScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 && s.dupPending == 0 {
		return Delivery{}, false
	}
	n := len(s.links.head)
	for i := 0; i < n; i++ {
		link := s.cursor + i
		if link >= n {
			link -= n
		}
		if !s.dupSet[link] && s.links.empty(link) {
			continue
		}
		s.cursor = link + 1
		if s.cursor == n {
			s.cursor = 0
		}
		if s.dupSet[link] {
			d := Delivery{To: link >> 1, From: Direction(link&1 + 1), Payload: s.dup[link]}
			s.dup[link] = bits.Empty()
			s.dupSet[link] = false
			s.dupPending--
			return d, true
		}
		d := s.links.pop(link)
		if s.rng.Float64() < s.dupRate {
			s.dup[link] = d.Payload.Clone()
			s.dupSet[link] = true
			s.dupPending++
			s.faults.Duplicates++
			s.faults.DuplicateBits += d.Payload.Len()
		}
		return d, true
	}
	// Unreachable: a pending message or duplicate implies a schedulable link.
	return Delivery{}, false
}

// crashMode selects what happens to the crashed processor's traffic.
type crashMode int

const (
	// crashRepair: fail-stop plus ring splice. The processor is permanently
	// removed; frames addressed to it are rerouted to the next processor in
	// their direction of travel, as if its neighbours had been reconnected.
	crashRepair crashMode = iota
	// crashRestart: the processor stops receiving for a bounded outage and
	// then resumes with its state intact; its frames are buffered at the
	// link layer and replayed in order. A pure delay — a legal schedule.
	crashRestart
)

// crashScheduler crashes one seeded processor (never the leader) at a seeded
// delivery index. All fate draws happen at Reset, so the execution is a
// deterministic function of (seed, ring size) alone.
type crashScheduler struct {
	mode crashMode
	seed int64

	rng    *rand.Rand
	links  linkQueues
	cursor int
	n      int

	crashProc int // crashed processor, -1 when the ring is too small
	crashAt   int // delivered count at which the crash fires
	downUntil int // crashRestart: delivered count at which the outage ends
	delivered int
	crashed   bool
	faults    FaultReport
}

// NewCrashRepairScheduler returns the seeded fail-stop-and-splice schedule.
func NewCrashRepairScheduler(seed int64) Scheduler {
	return &crashScheduler{mode: crashRepair, seed: seed}
}

// NewCrashRestartScheduler returns the seeded crash-and-restart schedule:
// the self-stabilizing variant, whose outage is a pure delivery delay.
func NewCrashRestartScheduler(seed int64) Scheduler {
	return &crashScheduler{mode: crashRestart, seed: seed}
}

//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (s *crashScheduler) Name() string {
	if s.mode == crashRepair {
		return fmt.Sprintf("crash-repair(seed=%d)", s.seed)
	}
	return fmt.Sprintf("crash-restart(seed=%d)", s.seed)
}

func (s *crashScheduler) DeliveryGuarantee() DeliveryGuarantee {
	if s.mode == crashRepair {
		return CrashProne
	}
	return ExactlyOnce
}

func (s *crashScheduler) reportFaults(fr *FaultReport, crashed []int) {
	*fr = s.faults
	if s.crashed {
		//ring:prealloc -- crashed has room for the one processor a run crashes
		fr.Crashed = append(crashed, s.crashProc)
	}
}

func (s *crashScheduler) Reset(links int) {
	s.links.reset(links)
	s.cursor = 0
	s.n = links / 2
	s.delivered = 0
	s.crashed = false
	s.faults = FaultReport{}
	// All randomness is drawn here: the victim (never the leader at index 0,
	// who holds the verdict), the crash point within the first two ring
	// tours, and the outage length of the restart variant.
	s.rng = reseeded(s.rng, s.seed)
	if s.n < 2 {
		s.crashProc = -1
		return
	}
	s.crashProc = 1 + s.rng.Intn(s.n-1)
	s.crashAt = 1 + s.rng.Intn(2*s.n)
	s.downUntil = s.crashAt + s.n + s.rng.Intn(2*s.n)
}

func (s *crashScheduler) Push(link int, d Delivery) { s.links.push(link, d) }

// Next delivers round-robin by link, applying the crash fate to links that
// target the crashed processor: repair reroutes them past it, restart defers
// them until the outage ends. When only deferred traffic remains, the outage
// ends early — the network around the crashed processor has quiesced, and
// holding its frames any longer would deadlock a live run.
//
//ring:deterministic
func (s *crashScheduler) Next() (Delivery, bool) {
	if s.links.pending == 0 {
		return Delivery{}, false
	}
	if !s.crashed && s.crashProc >= 0 && s.delivered >= s.crashAt {
		s.crashed = true
	}
	for {
		n := len(s.links.head)
		deferred := false
		for i := 0; i < n; i++ {
			link := s.cursor + i
			if link >= n {
				link -= n
			}
			if s.links.empty(link) {
				continue
			}
			if s.crashed && link>>1 == s.crashProc {
				if s.mode == crashRestart && s.delivered < s.downUntil {
					s.faults.Deferred++
					deferred = true
					continue
				}
				if s.mode == crashRepair {
					s.advanceCursor(link)
					s.delivered++
					d := s.links.pop(link)
					// The frame keeps travelling in its direction past the
					// spliced-out processor; the arrival direction the new
					// receiver perceives is unchanged.
					travel := d.From.Opposite()
					d.To = neighbour(s.crashProc, travel, s.n)
					s.faults.Rerouted++
					return d, true
				}
			}
			s.advanceCursor(link)
			s.delivered++
			return s.links.pop(link), true
		}
		if !deferred {
			// Unreachable: pending > 0 implies some link is non-empty.
			return Delivery{}, false
		}
		// Only the crashed processor's frames remain: restart it now.
		s.downUntil = s.delivered
	}
}

func (s *crashScheduler) advanceCursor(link int) {
	s.cursor = link + 1
	if s.cursor == len(s.links.head) {
		s.cursor = 0
	}
}
