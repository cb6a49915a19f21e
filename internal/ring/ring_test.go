package ring

import (
	"errors"
	"testing"

	"ringlang/internal/bits"
)

// tokenNode implements the simplest possible recognition-shaped algorithm: a
// single one-bit token travels once around the ring and the leader accepts
// when it returns. It uses the zero-allocation payload path (Context.Writer +
// Context.Reply), so the engine benchmarks measure the loop, not the nodes.
type tokenNode struct {
	leader bool
}

func (t *tokenNode) Start(ctx *Context) ([]Send, error) {
	if !t.leader {
		return nil, nil
	}
	w := ctx.Writer()
	w.WriteBool(true)
	return ctx.Reply(Forward, w.BitString()), nil
}

func (t *tokenNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	if t.leader {
		return nil, ctx.Accept()
	}
	return ctx.Reply(Forward, payload), nil
}

// engineNamed resolves a scheduler-backed catalog schedule by name, the way
// every caller outside the package does.
func engineNamed(name string, seed int64) *ScheduledEngine {
	e, err := NewEngineByName(name, seed)
	if err != nil {
		panic(err)
	}
	return e.(*ScheduledEngine)
}

// engineOf runs a scheduler built at a non-default rate or bound.
func engineOf(build func() Scheduler) *ScheduledEngine {
	return NewScheduledEngine(build().Name(), build)
}

func tokenNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &tokenNode{leader: i == LeaderIndex}
	}
	return nodes
}

// incrementNode passes a delta-coded counter around the ring; the leader
// rejects if the count disagrees with the ring size it knows from the test.
type incrementNode struct {
	leader bool
	want   uint64
}

func (c *incrementNode) Start(ctx *Context) ([]Send, error) {
	if !c.leader {
		return nil, nil
	}
	var w bits.Writer
	w.WriteDeltaValue(1)
	return []Send{SendForward(w.String())}, nil
}

func (c *incrementNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	r := bits.NewReader(payload)
	v, err := r.ReadDeltaValue()
	if err != nil {
		return nil, err
	}
	if c.leader {
		if v == c.want {
			return nil, ctx.Accept()
		}
		return nil, ctx.Reject()
	}
	var w bits.Writer
	w.WriteDeltaValue(v + 1)
	return []Send{SendForward(w.String())}, nil
}

// bounceNode exercises bidirectional mode: the leader sends one probe in each
// direction; followers bounce probes straight back; the leader accepts once
// both probes returned.
type bounceNode struct {
	leader   bool
	returned int
}

func (b *bounceNode) Start(ctx *Context) ([]Send, error) {
	if !b.leader {
		return nil, nil
	}
	var w bits.Writer
	w.WriteUint(2, 2)
	return []Send{SendForward(w.String()), SendBackward(w.String())}, nil
}

func (b *bounceNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	if b.leader {
		b.returned++
		if b.returned == 2 {
			return nil, ctx.Accept()
		}
		return nil, nil
	}
	// Send it back where it came from.
	return []Send{{Dir: from, Payload: payload}}, nil
}

// floodOnceNode is an election-shaped algorithm: every processor initiates
// one forward message; receivers absorb it. No verdict is produced, so the
// run must terminate by quiescence.
type floodOnceNode struct{}

func (f *floodOnceNode) Start(ctx *Context) ([]Send, error) {
	var w bits.Writer
	w.WriteUint(1, 3)
	return []Send{SendForward(w.String())}, nil
}

func (f *floodOnceNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	return nil, nil
}

// loopForeverNode endlessly forwards the token without deciding, to exercise
// the message budget guard.
type loopForeverNode struct{ leader bool }

func (l *loopForeverNode) Start(ctx *Context) ([]Send, error) {
	if !l.leader {
		return nil, nil
	}
	var w bits.Writer
	w.WriteBool(true)
	return []Send{SendForward(w.String())}, nil
}

func (l *loopForeverNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	return []Send{SendForward(payload)}, nil
}

// illegalBackwardNode sends backward on a unidirectional ring.
type illegalBackwardNode struct{ leader bool }

func (i *illegalBackwardNode) Start(ctx *Context) ([]Send, error) {
	if !i.leader {
		return nil, nil
	}
	var w bits.Writer
	w.WriteBool(true)
	return []Send{SendBackward(w.String())}, nil
}

func (i *illegalBackwardNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	return nil, nil
}

// rogueDeciderNode has a non-leader attempt to accept.
type rogueDeciderNode struct{ leader bool }

func (r *rogueDeciderNode) Start(ctx *Context) ([]Send, error) {
	if !r.leader {
		return nil, nil
	}
	var w bits.Writer
	w.WriteBool(true)
	return []Send{SendForward(w.String())}, nil
}

func (r *rogueDeciderNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	if !r.leader {
		if err := ctx.Accept(); err != nil {
			return nil, err
		}
	}
	return nil, ctx.Accept()
}

// engines are the engines the basic ring tests run on: the serial loop and
// the sharded engine at two forced workers, so node code also runs on
// several goroutines.
func engines() []Engine {
	return []Engine{NewSequentialEngine(), NewShardedEngineWorkers(2)}
}

func TestTokenAroundRing(t *testing.T) {
	for _, eng := range engines() {
		for _, n := range []int{1, 2, 3, 8, 64} {
			res, err := eng.Run(Config{Mode: Unidirectional, RequireVerdict: true}, tokenNodes(n))
			if err != nil {
				t.Fatalf("%s n=%d: %v", eng.Name(), n, err)
			}
			if res.Verdict != VerdictAccept {
				t.Errorf("%s n=%d verdict = %v", eng.Name(), n, res.Verdict)
			}
			if res.Stats.Messages != n {
				t.Errorf("%s n=%d messages = %d, want %d", eng.Name(), n, res.Stats.Messages, n)
			}
			if res.Stats.Bits != n {
				t.Errorf("%s n=%d bits = %d, want %d", eng.Name(), n, res.Stats.Bits, n)
			}
			if res.Stats.MaxMessageBits != 1 {
				t.Errorf("%s n=%d max message bits = %d, want 1", eng.Name(), n, res.Stats.MaxMessageBits)
			}
		}
	}
}

func TestCounterRing(t *testing.T) {
	for _, eng := range engines() {
		for _, n := range []int{1, 2, 5, 33} {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
			}
			res, err := eng.Run(Config{Mode: Unidirectional, RequireVerdict: true}, nodes)
			if err != nil {
				t.Fatalf("%s n=%d: %v", eng.Name(), n, err)
			}
			if res.Verdict != VerdictAccept {
				t.Errorf("%s n=%d: counter algorithm rejected", eng.Name(), n)
			}
		}
	}
}

// TestSequentialConcurrentBitEquivalence checks that a run whose processors
// race on two sharded workers accounts exactly what the serial loop does.
func TestSequentialConcurrentBitEquivalence(t *testing.T) {
	for _, n := range []int{2, 7, 20} {
		nodes1 := make([]Node, n)
		nodes2 := make([]Node, n)
		for i := range nodes1 {
			nodes1[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
			nodes2[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
		}
		seq, err := NewSequentialEngine().Run(Config{RequireVerdict: true}, nodes1)
		if err != nil {
			t.Fatal(err)
		}
		conc, err := NewShardedEngineWorkers(2).Run(Config{RequireVerdict: true}, nodes2)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Verdict != conc.Verdict {
			t.Errorf("n=%d verdict mismatch: %v vs %v", n, seq.Verdict, conc.Verdict)
		}
		if seq.Stats.Bits != conc.Stats.Bits || seq.Stats.Messages != conc.Stats.Messages {
			t.Errorf("n=%d stats mismatch: seq %d bits/%d msgs, sharded %d bits/%d msgs",
				n, seq.Stats.Bits, seq.Stats.Messages, conc.Stats.Bits, conc.Stats.Messages)
		}
	}
}

func TestBidirectionalBounce(t *testing.T) {
	for _, eng := range engines() {
		n := 6
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &bounceNode{leader: i == LeaderIndex}
		}
		res, err := eng.Run(Config{Mode: Bidirectional, RequireVerdict: true}, nodes)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Verdict != VerdictAccept {
			t.Errorf("%s: verdict = %v", eng.Name(), res.Verdict)
		}
		if res.Stats.Messages != 4 {
			t.Errorf("%s: messages = %d, want 4 (two probes, two bounces)", eng.Name(), res.Stats.Messages)
		}
		if res.Stats.Bits != 8 {
			t.Errorf("%s: bits = %d, want 8", eng.Name(), res.Stats.Bits)
		}
	}
}

func TestQuiescenceWithoutVerdict(t *testing.T) {
	for _, eng := range engines() {
		n := 9
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &floodOnceNode{}
		}
		res, err := eng.Run(Config{Mode: Unidirectional, Initiators: AllProcessors}, nodes)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Verdict != VerdictNone {
			t.Errorf("%s: verdict = %v, want none", eng.Name(), res.Verdict)
		}
		if res.Stats.Messages != n {
			t.Errorf("%s: messages = %d, want %d", eng.Name(), res.Stats.Messages, n)
		}
		if res.Stats.Bits != 3*n {
			t.Errorf("%s: bits = %d, want %d", eng.Name(), res.Stats.Bits, 3*n)
		}
	}
}

func TestRequireVerdictFailsOnQuiescence(t *testing.T) {
	for _, eng := range engines() {
		nodes := make([]Node, 4)
		for i := range nodes {
			nodes[i] = &floodOnceNode{}
		}
		_, err := eng.Run(Config{Initiators: AllProcessors, RequireVerdict: true}, nodes)
		if !errors.Is(err, ErrNoVerdict) {
			t.Errorf("%s: err = %v, want ErrNoVerdict", eng.Name(), err)
		}
	}
}

func TestMessageBudgetGuard(t *testing.T) {
	for _, eng := range engines() {
		n := 5
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &loopForeverNode{leader: i == LeaderIndex}
		}
		_, err := eng.Run(Config{MaxMessages: 100}, nodes)
		if !errors.Is(err, ErrMessageBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrMessageBudgetExceeded", eng.Name(), err)
		}
	}
}

func TestBackwardSendRejectedInUnidirectionalMode(t *testing.T) {
	for _, eng := range engines() {
		nodes := []Node{&illegalBackwardNode{leader: true}, &illegalBackwardNode{}, &illegalBackwardNode{}}
		_, err := eng.Run(Config{Mode: Unidirectional}, nodes)
		if !errors.Is(err, ErrBackwardInUnidirectional) {
			t.Errorf("%s: err = %v, want ErrBackwardInUnidirectional", eng.Name(), err)
		}
	}
}

func TestNonLeaderCannotDecide(t *testing.T) {
	for _, eng := range engines() {
		nodes := []Node{&rogueDeciderNode{leader: true}, &rogueDeciderNode{}, &rogueDeciderNode{}}
		_, err := eng.Run(Config{}, nodes)
		if !errors.Is(err, ErrNotLeader) {
			t.Errorf("%s: err = %v, want ErrNotLeader", eng.Name(), err)
		}
	}
}

func TestEmptyRingRejected(t *testing.T) {
	for _, eng := range engines() {
		if _, err := eng.Run(Config{}, nil); !errors.Is(err, ErrNoProcessors) {
			t.Errorf("%s: err = %v, want ErrNoProcessors", eng.Name(), err)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	n := 4
	res, err := NewSequentialEngine().Run(Config{RecordTrace: true, RequireVerdict: true}, tokenNodes(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("expected a non-empty trace")
	}
	var starts, sends, receives, verdicts int
	for i, ev := range res.Trace {
		if ev.Seq != i {
			t.Errorf("trace seq %d out of order (index %d)", ev.Seq, i)
		}
		switch ev.Kind {
		case EventStart:
			starts++
		case EventSend:
			sends++
		case EventReceive:
			receives++
		case EventVerdict:
			verdicts++
		}
	}
	if starts != 1 || sends != n || receives != n || verdicts != 1 {
		t.Errorf("trace composition starts=%d sends=%d receives=%d verdicts=%d", starts, sends, receives, verdicts)
	}
	if res.Trace[len(res.Trace)-1].Kind != EventVerdict {
		t.Error("last trace event should be the verdict")
	}
}

func TestPerLinkStats(t *testing.T) {
	n := 5
	res, err := NewSequentialEngine().Run(Config{RequireVerdict: true}, tokenNodes(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.PerLink()) != n {
		t.Fatalf("expected %d used links, got %d", n, len(res.Stats.PerLink()))
	}
	if got := res.Stats.Links(); len(got) != n {
		t.Fatalf("expected %d links from Links(), got %d", n, len(got))
	}
	for key, ls := range res.Stats.PerLink() {
		if ls.Messages != 1 || ls.Bits != 1 {
			t.Errorf("link %v stats = %+v, want 1 message / 1 bit", key, ls)
		}
		if neighbour(ls.From, Forward, n) != ls.To {
			t.Errorf("link %v is not a forward ring edge", key)
		}
	}
	min, ok := res.Stats.MinLinkBits()
	if !ok || min.Bits != 1 {
		t.Errorf("MinLinkBits = %+v/%v", min, ok)
	}
	if got := res.Stats.BitsPerProcessor(); got != 1 {
		t.Errorf("BitsPerProcessor = %f, want 1", got)
	}
}

func TestDirectionHelpers(t *testing.T) {
	if Forward.Opposite() != Backward || Backward.Opposite() != Forward {
		t.Error("Opposite broken")
	}
	if neighbour(0, Forward, 5) != 1 || neighbour(0, Backward, 5) != 4 || neighbour(4, Forward, 5) != 0 {
		t.Error("neighbour indexing broken")
	}
	if arrivalDirection(Forward) != Backward {
		t.Error("arrivalDirection broken")
	}
	if Forward.String() == "" || VerdictAccept.String() == "" || Unidirectional.String() == "" || EventSend.String() == "" {
		t.Error("String methods should be non-empty")
	}
}

// TestNeighbourMatchesModuloDefinition checks the compare-and-wrap neighbour
// against its modulo definition for every processor of small rings, in both
// directions, including the one- and two-processor rings where both
// neighbours coincide.
func TestNeighbourMatchesModuloDefinition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for from := 0; from < n; from++ {
			for _, tc := range []struct {
				d    Direction
				want int
			}{
				{Forward, (from + 1) % n},
				{Backward, (from - 1 + n) % n},
			} {
				if got := neighbour(from, tc.d, n); got != tc.want {
					t.Errorf("n=%d: neighbour(%d, %v) = %d, want %d", n, from, tc.d, got, tc.want)
				}
			}
		}
	}
}

func TestSingleProcessorRing(t *testing.T) {
	// A ring of size 1: the leader's forward neighbour is itself.
	for _, eng := range engines() {
		res, err := eng.Run(Config{RequireVerdict: true}, tokenNodes(1))
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if res.Verdict != VerdictAccept || res.Stats.Messages != 1 {
			t.Errorf("%s: verdict=%v messages=%d", eng.Name(), res.Verdict, res.Stats.Messages)
		}
	}
}
