package ring

import "ringlang/internal/bits"

// Delivery is one pending message as the receiver will observe it: the
// processor it is delivered to, the direction it arrives from (seen from the
// receiver) and the payload. Schedulers queue Deliveries; the shared event
// loop (runLoop) performs them.
type Delivery struct {
	To      int
	From    Direction
	Payload bits.String
}

// linkIndex maps a (receiver, arrival direction) pair to a dense id in
// [0, 2n): the directed link the delivery travels over. Schedulers index
// their per-link state with it, avoiding map-keyed queues on the hot path.
// The mapping is invertible — to = link>>1, arrival = link&1 + 1 — which is
// what lets the queue structures below avoid storing endpoints per message.
func linkIndex(to int, arrival Direction) int {
	return to<<1 | int(arrival-1)
}

// numLinks is the number of directed link ids on a ring of n processors.
// Unidirectional runs only ever touch the odd ids: their messages travel
// Forward, so they arrive from Backward, and linkIndex maps arrival ==
// Backward to to<<1 | 1.
func numLinks(n int) int { return 2 * n }

// fifoQueue is a struct-of-arrays FIFO of deliveries: parallel ring buffers
// for the receiver, arrival direction, and payload location, plus one flat
// byte arena holding every in-flight payload contiguously in push order. A
// drain-and-refill run cycles through the same few cache lines instead of
// chasing one heap-allocated payload per message, and popping is two array
// reads plus an arena slice — no pointer graph at all.
//
// Pushing copies the payload bytes into the arena, so a queued message never
// aliases the sender's scratch writer; popping returns a zero-copy view into
// the arena that stays valid until the NEXT pop (the previous payload's bytes
// are only reclaimed then), which covers the event loop's
// pop → Receive → dispatch window exactly.
type fifoQueue struct {
	// Slot ring (len is zero or a power of two), parallel arrays. The
	// receiver and arrival direction are packed as one link id (linkIndex is
	// invertible); slotLink and slotBits are carved out of one shared backing
	// allocation, so a cold queue costs three allocations total.
	slotLink []int32 // linkIndex(to, from) of the delivery
	slotOff  []int64 // absolute arena offset of the payload's first byte
	slotBits []int32 // payload length in bits
	head     int
	n        int

	// Payload arena: a power-of-two byte ring addressed by absolute,
	// monotonically increasing offsets (masked on access). aHead trails the
	// oldest still-reserved payload; aTail is the next write position. Each
	// payload is stored contiguously — pushes pad past the wrap point rather
	// than splitting — so views are plain subslices.
	arena []byte
	aHead int64
	aTail int64

	// Peaks of the current run and the shrink-policy counters fed by them.
	peakSlots      int
	peakBytes      int64
	oversizedSlots int
	oversizedArena int
}

func (q *fifoQueue) len() int { return q.n }

// push enqueues one delivery, copying the payload into the arena. Growth is
// first-run amortized; a warmed queue pushes allocation-free.
//
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (q *fifoQueue) push(to int, from Direction, payload bits.String) {
	if q.n == len(q.slotLink) {
		q.growSlots()
	}
	raw := payload.Raw()
	need := int64(len(raw))
	for {
		capA := int64(len(q.arena))
		if capA == 0 {
			q.growArena(need)
			continue
		}
		pos := q.aTail
		pad := int64(0)
		if rem := capA - pos&(capA-1); rem < need {
			pad = rem // keep the payload contiguous: skip the wrap remainder
		}
		if pos+pad+need-q.aHead > capA {
			q.growArena(pos + pad + need - q.aHead)
			continue
		}
		q.aTail = pos + pad
		break
	}
	off := q.aTail
	copy(q.arena[off&int64(len(q.arena)-1):], raw)
	q.aTail = off + need
	i := (q.head + q.n) & (len(q.slotLink) - 1)
	q.slotLink[i] = int32(linkIndex(to, from))
	q.slotOff[i] = off
	q.slotBits[i] = int32(payload.Len())
	q.n++
	if q.n > q.peakSlots {
		q.peakSlots = q.n
	}
	if used := q.aTail - q.aHead; used > q.peakBytes {
		q.peakBytes = used
	}
}

// pop dequeues the oldest delivery as a zero-copy view into the arena.
//
//ring:hotpath guard=TestEngineLoopAllocRegressionGuard
func (q *fifoQueue) pop() Delivery {
	i := q.head
	q.head = (q.head + 1) & (len(q.slotLink) - 1)
	q.n--
	off := q.slotOff[i]
	// Everything before this payload — including the previously popped one,
	// whose view the caller has finished with by now — is reclaimed here.
	q.aHead = off
	nbits := int(q.slotBits[i])
	view := q.arena[off&int64(len(q.arena)-1):][:(nbits+7)/8]
	link := int(q.slotLink[i])
	return Delivery{
		To:      link >> 1,
		From:    Direction(link&1 + 1),
		Payload: bits.View(view, nbits),
	}
}

// reset empties the queue for a fresh run, applying the shrink policy: a
// backing array whose capacity dwarfs what recent runs actually used is
// released after shrinkAfterRuns consecutive oversized runs, so one huge run
// does not pin its high-water memory forever.
func (q *fifoQueue) reset() {
	if shouldShrink(len(q.slotLink), q.peakSlots, &q.oversizedSlots) {
		q.slotLink, q.slotOff, q.slotBits = nil, nil, nil
	}
	if shouldShrink(len(q.arena), int(q.peakBytes), &q.oversizedArena) {
		q.arena = nil
	}
	q.head, q.n = 0, 0
	q.aHead, q.aTail = 0, 0
	q.peakSlots, q.peakBytes = 0, 0
}

// retainedSlots and retainedArenaBytes expose current capacities to the
// shrink-policy tests.
func (q *fifoQueue) retainedSlots() int      { return len(q.slotLink) }
func (q *fifoQueue) retainedArenaBytes() int { return len(q.arena) }

func (q *fifoQueue) growSlots() {
	size := 2 * len(q.slotLink)
	if size == 0 {
		size = 4
	}
	ints := make([]int32, 2*size) // slotLink and slotBits share one allocation
	link := ints[:size:size]
	bitsN := ints[size:]
	off := make([]int64, size)
	mask := len(q.slotLink) - 1
	for i := 0; i < q.n; i++ {
		j := (q.head + i) & mask
		link[i], off[i], bitsN[i] = q.slotLink[j], q.slotOff[j], q.slotBits[j]
	}
	q.slotLink, q.slotOff, q.slotBits = link, off, bitsN
	q.head = 0
}

// growArena replaces the byte ring with one of at least `need` bytes and
// re-lays the queued payloads out contiguously from offset zero, rewriting
// their slot offsets. Outstanding pop views keep the old arena alive through
// their own slice references, so rebasing is safe.
func (q *fifoQueue) growArena(need int64) {
	size := int64(len(q.arena)) * 2
	if size < 64 {
		size = 64
	}
	for size < need {
		size *= 2
	}
	fresh := make([]byte, size)
	oldMask := int64(len(q.arena) - 1)
	pos := int64(0)
	slotMask := len(q.slotLink) - 1
	for i := 0; i < q.n; i++ {
		j := (q.head + i) & slotMask
		nbytes := int64(int(q.slotBits[j])+7) / 8
		copy(fresh[pos:], q.arena[q.slotOff[j]&oldMask:][:nbytes])
		q.slotOff[j] = pos
		pos += nbytes
	}
	q.arena = fresh
	q.aHead, q.aTail = 0, pos
}

// linkQueues is a dense set of per-link FIFO queues in struct-of-arrays
// form: flat head/tail arrays indexed by link id, chained through one shared
// entry pool that stores only the payload (the endpoints are recomputed from
// the link id on pop). Compared to one growable buffer per link this is a
// single allocation for all 2n queues, and resetting for a new run is two
// array fills instead of 2n buffer walks.
type linkQueues struct {
	head []int32 // per-link chain head into the pool, -1 when empty
	tail []int32 // per-link chain tail, -1 when empty

	// Entry pool (struct-of-arrays): payload plus intrusive next link. Free
	// entries are chained through next starting at freeHead.
	payload  []bits.String
	next     []int32
	freeHead int32

	pending int

	peakEntries      int
	oversizedLinks   int
	oversizedEntries int
}

// reset prepares the queues for a fresh run over `links` directed links,
// applying the shrink policy to both the flat link arrays and the entry pool.
func (l *linkQueues) reset(links int) {
	if shouldShrink(cap(l.head), links, &l.oversizedLinks) {
		l.head, l.tail = nil, nil
	}
	if shouldShrink(cap(l.payload), l.peakEntries, &l.oversizedEntries) {
		l.payload, l.next = nil, nil
	}
	// Release stale payload references so the pool's retained capacity never
	// pins last run's message buffers.
	for i := range l.payload {
		l.payload[i] = bits.Empty()
	}
	l.payload = l.payload[:0]
	l.next = l.next[:0]
	l.freeHead = -1
	if cap(l.head) >= links {
		l.head = l.head[:links]
		l.tail = l.tail[:links]
	} else {
		l.head = make([]int32, links)
		l.tail = make([]int32, links)
	}
	for i := range l.head {
		l.head[i] = -1
		l.tail[i] = -1
	}
	l.pending = 0
	l.peakEntries = 0
}

// alloc takes an entry from the freelist (or grows the pool) and stores the
// payload in it.
//
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop
func (l *linkQueues) alloc(p bits.String) int32 {
	if e := l.freeHead; e >= 0 {
		l.freeHead = l.next[e]
		l.payload[e] = p
		l.next[e] = -1
		return e
	}
	//ringvet:ignore hotpathalloc -- pool growth is first-run amortized; steady state serves from the freelist above
	l.payload = append(l.payload, p)
	//ringvet:ignore hotpathalloc -- grows in lockstep with payload; same first-run amortization
	l.next = append(l.next, -1)
	return int32(len(l.payload) - 1)
}

// push appends d's payload to the link's queue and reports whether the link
// was empty before (i.e. just became schedulable). The caller must pass the
// link id matching d (link == linkIndex(d.To, d.From)); the endpoints are not
// stored.
//
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop
func (l *linkQueues) push(link int, d Delivery) (wasEmpty bool) {
	e := l.alloc(d.Payload)
	if t := l.tail[link]; t >= 0 {
		l.next[t] = e
	} else {
		l.head[link] = e
		wasEmpty = true
	}
	l.tail[link] = e
	l.pending++
	if l.pending > l.peakEntries {
		l.peakEntries = l.pending
	}
	return wasEmpty
}

// pop dequeues the head of the link's queue, recycling its entry.
//
//ring:hotpath guard=TestLoopAllocatesLessThanSeedLoop
func (l *linkQueues) pop(link int) Delivery {
	e := l.head[link]
	l.head[link] = l.next[e]
	if l.next[e] < 0 {
		l.tail[link] = -1
	}
	p := l.payload[e]
	l.payload[e] = bits.Empty() // release the payload reference
	l.next[e] = l.freeHead
	l.freeHead = e
	l.pending--
	return Delivery{To: link >> 1, From: Direction(link&1 + 1), Payload: p}
}

// empty reports whether the link's queue holds no message.
func (l *linkQueues) empty(link int) bool { return l.head[link] < 0 }

// rotate returns the first non-empty link at or after cursor, wrapping
// around, and the cursor just past it: the fixed rotation the round-robin and
// lossy schedules offer links in. Some link must be non-empty.
func (l *linkQueues) rotate(cursor int) (link, next int) {
	n := len(l.head)
	for i := 0; i < n; i++ {
		if link = cursor + i; link >= n {
			link -= n
		}
		if !l.empty(link) {
			if next = link + 1; next == n {
				next = 0
			}
			return link, next
		}
	}
	// Unreachable: pending > 0 implies some link is non-empty.
	return 0, cursor
}

// peek returns the head payload of the link without dequeuing it. The link
// must be non-empty.
func (l *linkQueues) peek(link int) bits.String { return l.payload[l.head[link]] }

// retainedLinks and retainedEntries expose current capacities to the
// shrink-policy tests.
func (l *linkQueues) retainedLinks() int   { return cap(l.head) }
func (l *linkQueues) retainedEntries() int { return cap(l.payload) }
