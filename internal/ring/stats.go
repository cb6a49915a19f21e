package ring

import (
	"sort"

	"ringlang/internal/bits"
)

// LinkStats accumulates traffic over one directed link of the ring.
type LinkStats struct {
	// From and To are processor indices; the link carries messages From → To.
	From int
	To   int
	// Messages is the number of messages sent over the link.
	Messages int
	// Bits is the total payload length sent over the link.
	Bits int
}

// Stats is the bit/message accounting of one execution. It is computed by
// the engine; algorithms never report their own costs.
//
// Per-link traffic is stored struct-of-arrays: two flat counter arrays
// indexed by directed link id (see linkIndex), so the hot path touches two
// dense cache lines per message instead of a 4-field struct slot — and the
// endpoints are never stored at all, because a link id already encodes its
// receiver and arrival direction (the sender follows from the ring
// topology). The map the seed code exposed survives as the lazily-built view
// returned by PerLink; LinkStats values are materialized only there.
type Stats struct {
	// Processors is the ring size n.
	Processors int
	// Messages is the total number of messages delivered.
	Messages int
	// Bits is the total number of payload bits transmitted — the quantity
	// BIT_A(n) of the paper.
	Bits int
	// MaxMessageBits is the largest single message payload.
	MaxMessageBits int

	// linkMsgs and linkBits are indexed by linkIndex(to, arrival); a slot
	// with zero messages never carried traffic. They are allocated lazily on
	// the first record so a run that sends nothing allocates nothing. The
	// sharded engine writes them directly from its workers — every directed
	// link has exactly one sending processor, hence exactly one writing
	// worker, so the arrays need no synchronization beyond the final join.
	linkMsgs []int32
	linkBits []int64
	// view is the cached result of PerLink, invalidated on every record.
	view map[[2]int]*LinkStats

	// oversizedRuns counts consecutive resets that needed far less per-link
	// capacity than is retained, driving the shrink policy (see maybeShrink).
	oversizedRuns int
}

// newStats allocates a Stats for a ring of n processors.
func newStats(n int) *Stats {
	return &Stats{Processors: n}
}

// reset prepares the Stats for a fresh run on a ring of n processors, keeping
// the per-link backing arrays when their capacity suffices. This is what
// makes a Stats reusable across the runs of a batch worker. Capacity far
// beyond the new size is released after enough consecutive small runs (the
// RunState shrink policy), so one huge run does not pin its arrays forever.
func (s *Stats) reset(n int) {
	s.Processors = n
	s.Messages = 0
	s.Bits = 0
	s.MaxMessageBits = 0
	s.view = nil
	links := numLinks(n)
	if shouldShrink(cap(s.linkMsgs), links, &s.oversizedRuns) {
		s.linkMsgs = nil
		s.linkBits = nil
	}
	if cap(s.linkMsgs) >= links {
		s.linkMsgs = s.linkMsgs[:links]
		s.linkBits = s.linkBits[:links]
		for i := range s.linkMsgs {
			s.linkMsgs[i] = 0
			s.linkBits[i] = 0
		}
	} else {
		s.linkMsgs = nil // reallocated lazily at the new size
		s.linkBits = nil
	}
}

// ensureLinks materializes the per-link counter arrays at full size. The
// serial loop lets record do this lazily; the sharded engine calls it before
// launching workers so no two workers race the allocation.
func (s *Stats) ensureLinks() {
	if s.linkMsgs == nil {
		s.linkMsgs = make([]int32, numLinks(s.Processors))
		s.linkBits = make([]int64, numLinks(s.Processors))
	}
}

// record accounts one message of n bits sent to processor `to`, arriving
// from direction `arrival` as the receiver perceives it (the pair (to,
// arrival) names the directed link, see linkIndex; the sender is implied by
// the topology).
//
//ring:deterministic
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (s *Stats) record(to int, arrival Direction, n int) {
	s.Messages++
	s.Bits += n
	if n > s.MaxMessageBits {
		s.MaxMessageBits = n
	}
	s.ensureLinks()
	link := linkIndex(to, arrival)
	s.linkMsgs[link]++
	s.linkBits[link] += int64(n)
	s.view = nil
}

// linkStatsAt materializes the LinkStats of one directed link id, deriving
// the endpoints from the id: the receiver is link>>1, the arrival direction
// is the low bit, and the sender is the receiver's neighbour in the arrival
// direction.
func (s *Stats) linkStatsAt(link int) LinkStats {
	to := link >> 1
	arrival := Direction(link&1 + 1)
	return LinkStats{
		From:     neighbour(to, arrival, s.Processors),
		To:       to,
		Messages: int(s.linkMsgs[link]),
		Bits:     int(s.linkBits[link]),
	}
}

// Links returns the links that carried at least one message, ordered by
// (From, To) — the PerLink view as a deterministic slice, including its
// merge of the two link directions that share a key on 1- and 2-rings. The
// returned slice is freshly allocated and safe to retain.
//
//ring:deterministic
func (s *Stats) Links() []LinkStats {
	view := s.PerLink()
	out := make([]LinkStats, 0, len(view))
	//ring:ordered -- collected into a slice and sorted by (From, To) below
	for _, ls := range view {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// PerLink returns the traffic per directed link, keyed by (From, To) — the
// view the seed Stats stored directly. It is built on first call and cached
// until the next record. On rings of one or two processors the forward and
// backward link between a pair of processors share a (From, To) key; their
// traffic is merged, matching the seed behaviour.
func (s *Stats) PerLink() map[[2]int]*LinkStats {
	if s.view != nil {
		return s.view
	}
	view := make(map[[2]int]*LinkStats)
	for i := range s.linkMsgs {
		if s.linkMsgs[i] == 0 {
			continue
		}
		ls := s.linkStatsAt(i)
		key := [2]int{ls.From, ls.To}
		if prev, ok := view[key]; ok {
			prev.Messages += ls.Messages
			prev.Bits += ls.Bits
			continue
		}
		entry := ls
		view[key] = &entry
	}
	s.view = view
	return view
}

// Clone returns an independent deep copy. Batch executors that reuse one
// Stats across runs snapshot each run's accounting with it.
//
//ring:coldpath -- result snapshot, taken once per completed run
func (s *Stats) Clone() *Stats {
	c := *s
	c.view = nil
	if s.linkMsgs != nil {
		c.linkMsgs = append([]int32(nil), s.linkMsgs...)
		c.linkBits = append([]int64(nil), s.linkBits...)
	}
	return &c
}

// BitsPerProcessor returns Bits / n, the per-processor average used when
// checking linear (O(n)) scaling.
func (s *Stats) BitsPerProcessor() float64 {
	if s.Processors == 0 {
		return 0
	}
	return float64(s.Bits) / float64(s.Processors)
}

// MinLinkBits returns the smallest bit count over all links that carried
// traffic, and the link itself; this is the quantity the Theorem 5
// transformation cuts the ring at. It works on the PerLink view, so a cut on
// a degenerate 1- or 2-ring sees a processor pair's two directions as one
// merged link, like the seed accounting did. Ties are broken
// deterministically towards the lowest (From, To) pair, so the cut link of
// two identical runs is always the same link. The boolean is false if no
// link carried any message.
//
//ring:deterministic
func (s *Stats) MinLinkBits() (LinkStats, bool) {
	var best *LinkStats
	//ring:ordered -- the comparison below breaks ties towards the lowest (From, To) pair, so the minimum is order-independent
	for _, ls := range s.PerLink() {
		if best == nil || ls.Bits < best.Bits ||
			(ls.Bits == best.Bits && (ls.From < best.From ||
				(ls.From == best.From && ls.To < best.To))) {
			best = ls
		}
	}
	if best == nil {
		return LinkStats{}, false
	}
	return *best, true
}

// EventKind classifies trace events.
type EventKind int

const (
	// EventStart marks a processor's Start invocation.
	EventStart EventKind = iota + 1
	// EventSend marks a message leaving a processor.
	EventSend
	// EventReceive marks a message delivered to a processor.
	EventReceive
	// EventVerdict marks the leader's decision.
	EventVerdict
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventSend:
		return "send"
	case EventReceive:
		return "receive"
	case EventVerdict:
		return "verdict"
	default:
		return "unknown"
	}
}

// Event is a single entry of an execution trace. Seq is a global sequence
// number establishing the total order of the recorded execution. Traces
// come from the single-goroutine event loop only (a traced sharded run falls
// back to it), so that order is the delivery order of the run.
type Event struct {
	Seq       int
	Kind      EventKind
	Processor int
	// Dir is the direction of the send/receive relative to the processor
	// (meaningless for start/verdict events).
	Dir Direction
	// Payload is the message content for send/receive events.
	Payload bits.String
	// Verdict is set for EventVerdict events.
	Verdict Verdict
}

// Trace is the ordered list of recorded events.
type Trace []Event

// Result is what an engine returns for one execution.
type Result struct {
	// Verdict is the leader's decision, or VerdictNone for algorithms that
	// terminate by quiescence.
	Verdict Verdict
	// Stats is the exact bit/message accounting of the execution. When the
	// run reused caller-owned state (see RunState), Stats aliases that state
	// and is only valid until the state's next run; snapshot with Clone to
	// retain it.
	Stats *Stats
	// Trace is the recorded event sequence (nil unless Config.RecordTrace).
	Trace Trace
	// Faults is the fault accounting of the run — drops, duplicates,
	// crashes and their overheads. It is nil under every reliable schedule
	// and always non-nil (even when all-zero) under a fault-injecting one,
	// and is an independent snapshot, safe to retain.
	Faults *FaultReport
}
