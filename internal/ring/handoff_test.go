package ring_test

// Differential test of the event loop's hand-off: a lone send delivered
// straight to its receiver must be indistinguishable from the same message
// pushed into the scheduler and popped again. Every workload runs under the
// sequential and seeded random schedules twice — once on the built-in
// engine, which takes the hand-off, and once on the same scheduler wrapped by
// ring.QueuePath in a ScheduledEngine, which hides it — and the traces, the
// per-link stats and the verdicts must agree, on fresh and on reused run
// states. Under the sequential schedule the captured prefix checkpoints and
// the runs resumed from them must agree too.

import (
	"fmt"
	"math/rand"
	"testing"

	"ringlang/internal/bits"
	"ringlang/internal/core"
	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// handoffSizes covers the self-loop ring (n = 1, where the hand-off never
// applies), the rings whose two neighbours coincide, and ordinary ones.
var handoffSizes = []int{1, 2, 3, 7, 64}

// handoffSeeds is the number of random-schedule seeds each workload runs
// under.
const handoffSeeds = 24

// handoffPair is one schedule run both ways.
type handoffPair struct {
	name         string
	handoff      ring.StatefulEngine
	queue        ring.StatefulEngine
	handoffState *ring.RunState // reused by every run of the test
	queueState   *ring.RunState
}

// randomEngine resolves the seeded random schedule by name.
func randomEngine(seed int64) ring.StatefulEngine {
	e, err := ring.NewEngineByName("random", seed)
	if err != nil {
		panic(err)
	}
	return e.(ring.StatefulEngine)
}

func handoffPairs() []*handoffPair {
	pairs := []*handoffPair{{
		name:    "sequential",
		handoff: ring.NewSequentialEngine(),
		queue: ring.NewScheduledEngine("queue-path fifo", func() ring.Scheduler {
			return ring.QueuePath(ring.NewFIFOScheduler())
		}),
	}}
	for seed := int64(1); seed <= handoffSeeds; seed++ {
		pairs = append(pairs, &handoffPair{
			name:    fmt.Sprintf("random(seed=%d)", seed),
			handoff: randomEngine(seed),
			queue: ring.NewScheduledEngine("queue-path random", func() ring.Scheduler {
				return ring.QueuePath(ring.NewRandomScheduler(seed))
			}),
		})
	}
	for _, p := range pairs {
		p.handoffState, p.queueState = ring.NewRunState(), ring.NewRunState()
	}
	return pairs
}

// recorder is the Engine a workload runs on: it forwards to one side of a
// pair — on a fresh or a reused run state, with or without a trace — and
// keeps what it saw of the run. Workloads that build their own engine calls
// (election) are driven through it unchanged.
type recorder struct {
	eng   ring.StatefulEngine
	st    *ring.RunState // nil: a fresh state per run
	trace bool
	got   []runSummary
}

func (r *recorder) Name() string { return r.eng.Name() }

func (r *recorder) Run(cfg ring.Config, nodes []ring.Node) (*ring.Result, error) {
	cfg.RecordTrace = r.trace
	var res *ring.Result
	var err error
	if r.st == nil {
		res, err = r.eng.Run(cfg, nodes)
	} else {
		res, err = r.eng.RunWith(r.st, cfg, nodes)
	}
	r.got = append(r.got, summarize(res, err))
	return res, err
}

// runSummary is everything observable about one run, copied out before a
// reused state's next run overwrites it.
type runSummary struct {
	err                             string
	verdict                         ring.Verdict
	messages, bitsTotal, maxMessage int
	links                           []ring.LinkStats
	trace                           ring.Trace
}

func summarize(res *ring.Result, err error) runSummary {
	if err != nil {
		return runSummary{err: err.Error()}
	}
	return runSummary{
		verdict:    res.Verdict,
		messages:   res.Stats.Messages,
		bitsTotal:  res.Stats.Bits,
		maxMessage: res.Stats.MaxMessageBits,
		links:      res.Stats.Links(),
		trace:      res.Trace,
	}
}

// diff describes the first difference between two summaries, or "".
func (a runSummary) diff(b runSummary) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("error %q vs %q", a.err, b.err)
	case a.verdict != b.verdict:
		return fmt.Sprintf("verdict %v vs %v", a.verdict, b.verdict)
	case a.messages != b.messages || a.bitsTotal != b.bitsTotal || a.maxMessage != b.maxMessage:
		return fmt.Sprintf("totals %d msgs/%d bits/%d max vs %d/%d/%d",
			a.messages, a.bitsTotal, a.maxMessage, b.messages, b.bitsTotal, b.maxMessage)
	case len(a.links) != len(b.links):
		return fmt.Sprintf("%d links vs %d", len(a.links), len(b.links))
	case len(a.trace) != len(b.trace):
		return fmt.Sprintf("%d trace events vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.links {
		if a.links[i] != b.links[i] {
			return fmt.Sprintf("link %d: %+v vs %+v", i, a.links[i], b.links[i])
		}
	}
	for i, x := range a.trace {
		y := b.trace[i]
		if x.Seq != y.Seq || x.Kind != y.Kind || x.Processor != y.Processor ||
			x.Dir != y.Dir || x.Verdict != y.Verdict || !x.Payload.Equal(y.Payload) {
			return fmt.Sprintf("trace event %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// handoffWorkload is one run of an algorithm on a ring of n processors,
// issued on whatever engine it is given. It must build fresh nodes per call.
type handoffWorkload struct {
	name string
	run  func(eng ring.Engine) error
}

// catalogRecognizers builds every catalog algorithm, with the first catalog
// language it accepts where it takes one.
func catalogRecognizers(t *testing.T) []core.Recognizer {
	t.Helper()
	var out []core.Recognizer
	for _, alg := range core.AlgorithmNames() {
		rec, err := core.NewRecognizerByName(alg, "")
		for _, name := range append(lang.CatalogNames(), "k=3") {
			if err == nil {
				break
			}
			rec, err = core.NewRecognizerByName(alg, name)
		}
		if err != nil {
			t.Fatalf("%s accepts no catalog language: %v", alg, err)
		}
		out = append(out, rec)
	}
	return out
}

// catalogWorkloads runs every catalog recognizer on a member, a non-member
// and a random word of length n.
func catalogWorkloads(t *testing.T, n int, rng *rand.Rand) []handoffWorkload {
	t.Helper()
	var out []handoffWorkload
	for _, rec := range catalogRecognizers(t) {
		l := rec.Language()
		words := []lang.Word{lang.RandomWord(l.Alphabet(), n, rng)}
		if w, ok := l.GenerateMember(n, rng); ok {
			words = append(words, w)
		}
		if w, ok := l.GenerateNonMember(n, rng); ok {
			words = append(words, w)
		}
		for _, w := range words {
			out = append(out, handoffWorkload{
				name: fmt.Sprintf("%s/%s", rec.Name(), w),
				run: func(eng ring.Engine) error {
					nodes, err := rec.NewNodes(w)
					if err != nil {
						return err
					}
					_, err = eng.Run(recognizerConfig(rec), nodes)
					return err
				},
			})
		}
	}
	return out
}

func recognizerConfig(rec core.Recognizer) ring.Config {
	return ring.Config{Mode: rec.Mode(), Initiators: ring.LeaderOnly, RequireVerdict: true}
}

// relayNode passes a hop counter around a bidirectional ring on its scratch
// writer. The leader starts one token; at hop split it becomes two tokens
// travelling opposite ways, so a run goes from one message in flight (the
// hand-off) to two (real scheduling choices) and back to one as the tokens
// expire at hop limit.
type relayNode struct{ split, limit uint64 }

func (r *relayNode) Start(ctx *ring.Context) ([]ring.Send, error) {
	w := ctx.Writer()
	w.WriteEliasGamma(1)
	return ctx.Reply(ring.Forward, w.BitString()), nil
}

func (r *relayNode) Receive(ctx *ring.Context, from ring.Direction, payload bits.String) ([]ring.Send, error) {
	hops, err := bits.NewReader(payload).ReadEliasGamma()
	if err != nil || hops >= r.limit {
		return nil, err
	}
	ahead := from.Opposite()
	w := ctx.Writer()
	w.WriteEliasGamma(hops + 1)
	if hops == r.split {
		// Two messages in flight from one processor: snapshot the payload
		// instead of sharing the scratch writer.
		p := w.String()
		return []ring.Send{{Dir: ahead, Payload: p}, {Dir: from, Payload: p}}, nil
	}
	return ctx.Reply(ahead, w.BitString()), nil
}

// floodNode starts one message per processor with its own time to live and
// passes every message on until it expires, so many messages are in flight
// at first and the longest-lived one finishes alone.
type floodNode struct{ ttl uint64 }

func (f *floodNode) Start(ctx *ring.Context) ([]ring.Send, error) {
	return f.send(ctx, f.ttl), nil
}

func (f *floodNode) Receive(ctx *ring.Context, _ ring.Direction, payload bits.String) ([]ring.Send, error) {
	ttl, err := bits.NewReader(payload).ReadEliasGamma()
	if err != nil || ttl == 1 {
		return nil, err
	}
	return f.send(ctx, ttl-1), nil
}

func (f *floodNode) send(ctx *ring.Context, ttl uint64) []ring.Send {
	w := ctx.Writer()
	w.WriteEliasGamma(ttl)
	// A processor may have several messages in flight: snapshot.
	return ctx.Reply(ring.Forward, w.String())
}

// sharedReplyNode relays a hop counter Forward, and every processor of the
// ring returns the same one-element []Send: each Receive rewrites the slot
// that the previous hop returned and the loop may still hold. The loop reads
// a held reply before its receiver runs, so the rewrite must not show; the
// counter's Elias-γ length grows with the hops, so a late read changes the
// bits.
type sharedReplyNode struct {
	reply []ring.Send
	limit uint64
}

func (r *sharedReplyNode) Start(ctx *ring.Context) ([]ring.Send, error) {
	return r.send(ctx, 1), nil
}

func (r *sharedReplyNode) Receive(ctx *ring.Context, _ ring.Direction, payload bits.String) ([]ring.Send, error) {
	hops, err := bits.NewReader(payload).ReadEliasGamma()
	if err != nil || hops >= r.limit {
		return nil, err
	}
	return r.send(ctx, hops+1), nil
}

func (r *sharedReplyNode) send(ctx *ring.Context, hops uint64) []ring.Send {
	w := ctx.Writer()
	w.WriteEliasGamma(hops)
	r.reply[0] = ring.Send{Dir: ring.Forward, Payload: w.BitString()}
	return r.reply
}

// multiMessageWorkloads are ring-level node sets that keep more than one
// message in flight for part of the run, plus the shared-reply relay.
func multiMessageWorkloads(n int, rng *rand.Rand) []handoffWorkload {
	ids := make([]uint64, n)
	for i, v := range rng.Perm(n) {
		ids[i] = uint64(v + 1)
	}
	out := []handoffWorkload{
		{name: "shared-reply-relay", run: func(eng ring.Engine) error {
			reply := make([]ring.Send, 1)
			nodes := make([]ring.Node, n)
			for i := range nodes {
				nodes[i] = &sharedReplyNode{reply: reply, limit: uint64(3*n + 5)}
			}
			_, err := eng.Run(ring.Config{Mode: ring.Unidirectional, Initiators: ring.LeaderOnly}, nodes)
			return err
		}},
		{name: "bidirectional-relay", run: func(eng ring.Engine) error {
			nodes := make([]ring.Node, n)
			for i := range nodes {
				nodes[i] = &relayNode{split: uint64(n/2 + 1), limit: uint64(2*n + 3)}
			}
			_, err := eng.Run(ring.Config{Mode: ring.Bidirectional, Initiators: ring.LeaderOnly}, nodes)
			return err
		}},
		{name: "all-processors-flood", run: func(eng ring.Engine) error {
			nodes := make([]ring.Node, n)
			for i := range nodes {
				nodes[i] = &floodNode{ttl: uint64(1 + i*7%(2*n+1))}
			}
			_, err := eng.Run(ring.Config{Mode: ring.Unidirectional, Initiators: ring.AllProcessors}, nodes)
			return err
		}},
	}
	for _, p := range []election.Protocol{election.HirschbergSinclair, election.ChangRoberts, election.DolevKlaweRodeh} {
		out = append(out, handoffWorkload{name: p.String(), run: func(eng ring.Engine) error {
			_, err := election.Run(p, ids, eng)
			return err
		}})
	}
	return out
}

func TestHandoffMatchesQueuePath(t *testing.T) {
	pairs := handoffPairs()
	rng := rand.New(rand.NewSource(20))
	for _, n := range handoffSizes {
		workloads := append(catalogWorkloads(t, n, rng), multiMessageWorkloads(n, rng)...)
		for _, w := range workloads {
			for _, p := range pairs {
				for _, side := range []struct {
					name   string
					reused bool
					trace  bool
				}{
					{"fresh/trace", false, true},
					{"reused/trace", true, true},
					{"reused", true, false},
				} {
					a := &recorder{eng: p.handoff, trace: side.trace}
					b := &recorder{eng: p.queue, trace: side.trace}
					if side.reused {
						a.st, b.st = p.handoffState, p.queueState
					}
					errA, errB := w.run(a), w.run(b)
					if fmt.Sprint(errA) != fmt.Sprint(errB) {
						t.Fatalf("n=%d %s %s %s: error %v with the hand-off, %v without", n, w.name, p.name, side.name, errA, errB)
					}
					if len(a.got) != len(b.got) || len(a.got) == 0 {
						t.Fatalf("n=%d %s %s %s: %d runs with the hand-off, %d without", n, w.name, p.name, side.name, len(a.got), len(b.got))
					}
					for i := range a.got {
						if d := a.got[i].diff(b.got[i]); d != "" {
							t.Fatalf("n=%d %s %s %s: hand-off vs queue path: %s", n, w.name, p.name, side.name, d)
						}
					}
				}
			}
		}
	}
}

// TestHandoffCheckpointsMatchQueuePath captures a checkpoint after every
// delivery of every catalog recognizer's sequential run, with and without
// the hand-off, and resumes each one: the captured delivery counts and sizes
// and the resumed results must agree. A held message must be back in the
// queue when a checkpoint freezes it.
func TestHandoffCheckpointsMatchQueuePath(t *testing.T) {
	p := handoffPairs()[0]
	handoff := p.handoff.(ring.CheckpointEngine)
	queue := p.queue.(ring.CheckpointEngine)
	rng := rand.New(rand.NewSource(21))
	for _, n := range handoffSizes {
		for _, rec := range catalogRecognizers(t) {
			word := lang.RandomWord(rec.Language().Alphabet(), n, rng)
			if w, ok := rec.Language().GenerateMember(n, rng); ok {
				word = w
			}
			cfg := recognizerConfig(rec)
			every := make([]int, 8*n+8)
			for i := range every {
				every[i] = i + 1
			}
			capture := func(eng ring.CheckpointEngine) ([]*ring.Checkpoint, runSummary) {
				nodes, err := rec.NewNodes(word)
				if err != nil {
					t.Fatal(err)
				}
				var cps []*ring.Checkpoint
				res, err := eng.RunCheckpointed(ring.NewRunState(), cfg, nodes, ring.CheckpointRun{
					CaptureAfter: every,
					OnCapture:    func(cp *ring.Checkpoint) { cps = append(cps, cp) },
				})
				return cps, summarize(res, err)
			}
			resume := func(eng ring.CheckpointEngine, cp *ring.Checkpoint) runSummary {
				nodes, err := rec.NewNodes(word)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.RunCheckpointed(ring.NewRunState(), cfg, nodes, ring.CheckpointRun{Resume: cp})
				return summarize(res, err)
			}
			cpsA, sumA := capture(handoff)
			cpsB, sumB := capture(queue)
			name := fmt.Sprintf("n=%d %s/%s", n, rec.Name(), word)
			if d := sumA.diff(sumB); d != "" {
				t.Fatalf("%s: capturing run: %s", name, d)
			}
			if len(cpsA) != len(cpsB) {
				t.Fatalf("%s: %d checkpoints with the hand-off, %d without", name, len(cpsA), len(cpsB))
			}
			for i := range cpsA {
				a, b := cpsA[i], cpsB[i]
				if a.Deliveries() != b.Deliveries() || a.Bytes() != b.Bytes() {
					t.Fatalf("%s: checkpoint %d: %d deliveries/%d bytes with the hand-off, %d/%d without",
						name, i, a.Deliveries(), a.Bytes(), b.Deliveries(), b.Bytes())
				}
				if d := resume(handoff, a).diff(resume(queue, b)); d != "" {
					t.Fatalf("%s: resumed after %d deliveries: %s", name, a.Deliveries(), d)
				}
			}
		}
	}
}
