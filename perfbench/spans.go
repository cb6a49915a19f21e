package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ringlang/internal/bits"
	"ringlang/internal/ring"
)

// span is one timed call into a layer. Spans of one replayed request share
// req; a span nested in another names it as parent (-1: none).
type span struct {
	name   string
	start  time.Duration // since the traced run began
	end    time.Duration
	parent int32
	req    int32
}

// spanLog keeps a traced run's spans in memory until the run ends. Past
// maxSpans it keeps counting durations but stops storing spans.
type spanLog struct {
	t0      time.Time
	spans   []span
	dropped int
	// overhead is the median cost of an empty span, subtracted from spans
	// of calls that last about as long as the clock reads.
	overhead time.Duration
}

const maxSpans = 1 << 20

func newSpanLog() *spanLog {
	l := &spanLog{t0: time.Now()}
	ds := make([]time.Duration, 20001)
	for i := range ds {
		s := l.now()
		ds[i] = l.now() - s
	}
	l.overhead = percentile(ds, 0.5)
	return l
}

func (l *spanLog) now() time.Duration { return time.Since(l.t0) }

// add stores a finished span and returns its id.
func (l *spanLog) add(name string, start, end time.Duration, parent, req int32) int32 {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return int32(len(l.spans) - 1)
}

// write stores the spans as JSON lines under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close span file: %w", err)
	}
	return path, nil
}

// The calls the delivery tracer wraps.
const (
	callPush = iota
	callNext
	callStart
	callReceive
	numCalls
)

var callNames = [numCalls]string{"ring.sched.push", "ring.sched.next", "ring.node.start", "ring.node.receive"}

// sampleEvery is the per-delivery sampling period: one call of each kind in
// sampleEvery is timed, which keeps the tracing overhead small.
const sampleEvery = 64

// deliveryTracer times the scheduler and node calls of an engine run. It
// counts every call and times one in sampleEvery; the run's total per kind
// is the mean sampled time times the calls. Each sampled span subtracts an
// empty span taken right before it, the clock's own cost in the same
// surroundings, and the mean drops the highest and lowest percent of the
// samples: scaled up by sampleEvery, one stall of the host inside a sample
// would otherwise outweigh the calls it stands for.
type deliveryTracer struct {
	log     *spanLog
	parent  int32 // the run's span
	req     int32
	calls   [numCalls]int64
	samples [numCalls][]time.Duration // sampled time less the empty span
	empty   time.Duration             // the empty span before the current sample
}

func (t *deliveryTracer) sample(kind int) bool {
	t.calls[kind]++
	return t.calls[kind]%sampleEvery == 0
}

// begin starts a sampled span.
func (t *deliveryTracer) begin() time.Duration {
	a := t.log.now()
	b := t.log.now()
	t.empty = b - a
	return b
}

func (t *deliveryTracer) done(kind int, start time.Duration) {
	end := t.log.now()
	t.samples[kind] = append(t.samples[kind], end-start-t.empty)
	t.log.add(callNames[kind], start, end, t.parent, t.req)
}

// estimate is the tracer's total time of one call kind.
func (t *deliveryTracer) estimate(kind int) time.Duration {
	s := slices.Clone(t.samples[kind])
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	trim := len(s) / 100
	s = s[trim : len(s)-trim]
	return max(0, time.Duration(float64(sum(s))/float64(len(s))*float64(t.calls[kind])))
}

// tracedScheduler wraps a ring.Scheduler, timing Push and Next.
type tracedScheduler struct {
	inner ring.Scheduler
	t     *deliveryTracer
}

func (s *tracedScheduler) Name() string    { return s.inner.Name() }
func (s *tracedScheduler) Reset(links int) { s.inner.Reset(links) }

func (s *tracedScheduler) Push(link int, d ring.Delivery) {
	if !s.t.sample(callPush) {
		s.inner.Push(link, d)
		return
	}
	start := s.t.begin()
	s.inner.Push(link, d)
	s.t.done(callPush, start)
}

func (s *tracedScheduler) Next() (ring.Delivery, bool) {
	if !s.t.sample(callNext) {
		return s.inner.Next()
	}
	start := s.t.begin()
	d, ok := s.inner.Next()
	s.t.done(callNext, start)
	return d, ok
}

// tracedNode wraps a ring.Node, timing Start and Receive: the token
// framework and the bits codec.
type tracedNode struct {
	inner ring.Node
	t     *deliveryTracer
}

func (n *tracedNode) Start(ctx *ring.Context) ([]ring.Send, error) {
	if !n.t.sample(callStart) {
		return n.inner.Start(ctx)
	}
	start := n.t.begin()
	sends, err := n.inner.Start(ctx)
	n.t.done(callStart, start)
	return sends, err
}

func (n *tracedNode) Receive(ctx *ring.Context, from ring.Direction, payload bits.String) ([]ring.Send, error) {
	if !n.t.sample(callReceive) {
		return n.inner.Receive(ctx, from, payload)
	}
	start := n.t.begin()
	sends, err := n.inner.Receive(ctx, from, payload)
	n.t.done(callReceive, start)
	return sends, err
}
