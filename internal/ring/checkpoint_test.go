package ring

import (
	"errors"
	"fmt"
	"testing"

	"ringlang/internal/bits"
)

// hopNode is a stateful test algorithm for the checkpoint machinery: a
// counter token circulates forward, every processor adds one to it and
// remembers how many tokens it handled, and the leader accepts when the
// returned count equals the ring size. Unlike tokenNode it has real per-run
// state, so a resume that failed to reinstate node state would flip the
// verdict or the bit totals.
type hopNode struct {
	leader bool
	n      int
	seen   int64
}

func (h *hopNode) Start(ctx *Context) ([]Send, error) {
	if !h.leader {
		return nil, nil
	}
	w := ctx.Writer()
	w.WriteUint(1, 32)
	return ctx.Reply(Forward, w.BitString()), nil
}

func (h *hopNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	r := bits.NewReader(payload)
	v, err := r.ReadUint(32)
	if err != nil {
		return nil, err
	}
	h.seen++
	if h.leader {
		if int(v) == h.n {
			return nil, ctx.Accept()
		}
		return nil, ctx.Reject()
	}
	w := ctx.Writer()
	w.WriteUint(v+1, 32)
	return ctx.Reply(Forward, w.BitString()), nil
}

func (h *hopNode) ResumeState() int64 { return h.seen }
func (h *hopNode) Resume(s int64)     { h.seen = s }

func hopNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &hopNode{leader: i == LeaderIndex, n: n}
	}
	return nodes
}

// checkpointEngines returns the engines that must support capture/resume,
// one per prefix-stable schedule.
func checkpointEngines() map[string]CheckpointEngine {
	return map[string]CheckpointEngine{
		"sequential":  NewSequentialEngine(),
		"round-robin": engineNamed("round-robin", 0),
	}
}

// TestCheckpointResumeMatchesColdRun captures a checkpoint at every
// reachable boundary and resumes each onto fresh nodes, requiring the
// resumed run to reproduce the cold run bit for bit: verdict, totals,
// per-link stats, and final node states.
func TestCheckpointResumeMatchesColdRun(t *testing.T) {
	const n = 17
	cfg := Config{RequireVerdict: true}
	for name, eng := range checkpointEngines() {
		t.Run(name, func(t *testing.T) {
			cold, err := eng.RunWith(NewRunState(), cfg, hopNodes(n))
			if err != nil {
				t.Fatal(err)
			}
			coldStats := cold.Stats.Clone()
			coldLinks := coldStats.Links()

			// Capture at every delivery of the circulation except the final
			// (verdict) one.
			boundaries := make([]int, 0, n-1)
			for k := 1; k < n; k++ {
				boundaries = append(boundaries, k)
			}
			var cps []*Checkpoint
			res, err := eng.RunCheckpointed(NewRunState(), cfg, hopNodes(n), CheckpointRun{
				CaptureAfter: boundaries,
				OnCapture:    func(cp *Checkpoint) { cps = append(cps, cp) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != cold.Verdict {
				t.Fatalf("capture run verdict %v, cold %v", res.Verdict, cold.Verdict)
			}
			if len(cps) != len(boundaries) {
				t.Fatalf("captured %d checkpoints, want %d", len(cps), len(boundaries))
			}

			for _, cp := range cps {
				nodes := hopNodes(n)
				warm, err := eng.RunCheckpointed(NewRunState(), cfg, nodes, CheckpointRun{Resume: cp})
				if err != nil {
					t.Fatalf("resume at %d: %v", cp.Deliveries(), err)
				}
				if warm.Verdict != cold.Verdict {
					t.Errorf("resume at %d: verdict %v, cold %v", cp.Deliveries(), warm.Verdict, cold.Verdict)
				}
				if warm.Stats.Messages != coldStats.Messages || warm.Stats.Bits != coldStats.Bits ||
					warm.Stats.MaxMessageBits != coldStats.MaxMessageBits {
					t.Errorf("resume at %d: totals (%d msgs, %d bits, max %d) vs cold (%d, %d, %d)",
						cp.Deliveries(), warm.Stats.Messages, warm.Stats.Bits, warm.Stats.MaxMessageBits,
						coldStats.Messages, coldStats.Bits, coldStats.MaxMessageBits)
				}
				warmLinks := warm.Stats.Links()
				if len(warmLinks) != len(coldLinks) {
					t.Fatalf("resume at %d: %d links vs cold %d", cp.Deliveries(), len(warmLinks), len(coldLinks))
				}
				for i := range warmLinks {
					if warmLinks[i] != coldLinks[i] {
						t.Errorf("resume at %d: link %d = %+v, cold %+v", cp.Deliveries(), i, warmLinks[i], coldLinks[i])
					}
				}
				for i, node := range nodes {
					if got, want := node.(*hopNode).seen, int64(1); got != want {
						t.Errorf("resume at %d: node %d handled %d tokens, want %d", cp.Deliveries(), i, got, want)
					}
				}
			}
		})
	}
}

// TestCheckpointCopyOnResume resumes one checkpoint several times, from used
// and fresh nodes alike, proving the checkpoint itself is never consumed or
// mutated.
func TestCheckpointCopyOnResume(t *testing.T) {
	const n = 9
	cfg := Config{RequireVerdict: true}
	eng := NewSequentialEngine()
	var cp *Checkpoint
	if _, err := eng.RunCheckpointed(nil, cfg, hopNodes(n), CheckpointRun{
		CaptureAfter: []int{n / 2},
		OnCapture:    func(c *Checkpoint) { cp = c },
	}); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	wantBytes := cp.Bytes()
	nodes := hopNodes(n) // deliberately reused across resumes
	st := NewRunState()
	for i := 0; i < 5; i++ {
		res, err := eng.RunCheckpointed(st, cfg, nodes, CheckpointRun{Resume: cp})
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
		if res.Verdict != VerdictAccept {
			t.Fatalf("resume %d: verdict %v", i, res.Verdict)
		}
		if cp.Bytes() != wantBytes || cp.Deliveries() != n/2 || cp.Processors() != n {
			t.Fatalf("resume %d mutated the checkpoint", i)
		}
	}
}

// TestCheckpointRejectsMismatchedRuns pins the defensive checks: wrong ring
// size, wrong schedule, trace recording, unstable schedules, and nodes
// without resume support must all fail loudly instead of corrupting a run.
func TestCheckpointRejectsMismatchedRuns(t *testing.T) {
	const n = 8
	cfg := Config{RequireVerdict: true}
	eng := NewSequentialEngine()
	var cp *Checkpoint
	if _, err := eng.RunCheckpointed(nil, cfg, hopNodes(n), CheckpointRun{
		CaptureAfter: []int{3},
		OnCapture:    func(c *Checkpoint) { cp = c },
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := eng.RunCheckpointed(nil, cfg, hopNodes(n+1), CheckpointRun{Resume: cp}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("ring-size mismatch: got %v, want ErrCheckpointMismatch", err)
	}
	if _, err := engineNamed("round-robin", 0).RunCheckpointed(nil, cfg, hopNodes(n), CheckpointRun{Resume: cp}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("schedule mismatch: got %v, want ErrCheckpointMismatch", err)
	}
	traceCfg := cfg
	traceCfg.RecordTrace = true
	if _, err := eng.RunCheckpointed(nil, traceCfg, hopNodes(n), CheckpointRun{Resume: cp}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("trace resume: got %v, want ErrCheckpointMismatch", err)
	}
	adv := engineNamed("adversarial", 0)
	if _, err := adv.RunCheckpointed(nil, cfg, hopNodes(n), CheckpointRun{Resume: cp}); !errors.Is(err, ErrNotPrefixStable) {
		t.Errorf("adversarial resume: got %v, want ErrNotPrefixStable", err)
	}
	if _, err := adv.RunCheckpointed(nil, cfg, hopNodes(n), CheckpointRun{
		CaptureAfter: []int{3}, OnCapture: func(*Checkpoint) {},
	}); !errors.Is(err, ErrNotPrefixStable) {
		t.Errorf("adversarial capture: got %v, want ErrNotPrefixStable", err)
	}
	if _, err := eng.RunCheckpointed(nil, cfg, tokenNodes(n), CheckpointRun{
		CaptureAfter: []int{3}, OnCapture: func(*Checkpoint) {},
	}); !errors.Is(err, ErrNotResumable) {
		t.Errorf("non-resumable capture: got %v, want ErrNotResumable", err)
	}
}

// TestCheckpointCaptureSkipsDecidedBoundaries asks for boundaries past the
// verdict: the run must complete normally and simply not capture them.
func TestCheckpointCaptureSkipsDecidedBoundaries(t *testing.T) {
	const n = 6
	cfg := Config{RequireVerdict: true}
	var got []int
	res, err := NewSequentialEngine().RunCheckpointed(nil, cfg, hopNodes(n), CheckpointRun{
		CaptureAfter: []int{2, n, n + 50}, // delivery n decides; n and beyond must not capture
		OnCapture:    func(cp *Checkpoint) { got = append(got, cp.Deliveries()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictAccept {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("captured boundaries %v, want [2]", got)
	}
}

// TestScheduleIsPrefixStable pins the stable set: exactly the schedules the
// checkpoint design argument covers, with aliases folded.
func TestScheduleIsPrefixStable(t *testing.T) {
	stable := map[string]bool{
		"sequential": true, "fifo": true, "round-robin": true,
	}
	for _, name := range append(ScheduleNames(), "fifo", "random-order", "bounded-delay") {
		if got := ScheduleIsPrefixStable(name); got != stable[name] {
			t.Errorf("ScheduleIsPrefixStable(%q) = %v, want %v", name, got, stable[name])
		}
	}
}

// TestCheckpointResumeAllocRegressionGuard is the resume-path twin of
// TestEngineLoopAllocRegressionGuard: steady-state resumes on a reused
// RunState must stay at or below the cold steady-state floor — restoring a
// checkpoint may not allocate at all.
func TestCheckpointResumeAllocRegressionGuard(t *testing.T) {
	n := 4096
	cfg := Config{RequireVerdict: true}
	for name, eng := range checkpointEngines() {
		t.Run(name, func(t *testing.T) {
			var cp *Checkpoint
			if _, err := eng.RunCheckpointed(NewRunState(), cfg, hopNodes(n), CheckpointRun{
				CaptureAfter: []int{n / 2},
				OnCapture:    func(c *Checkpoint) { cp = c },
			}); err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatal("no checkpoint captured")
			}

			nodes := hopNodes(n)
			st := NewRunState()
			coldSt := NewRunState()
			coldNodes := hopNodes(n)
			if _, err := eng.RunCheckpointed(st, cfg, nodes, CheckpointRun{Resume: cp}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RunWith(coldSt, cfg, coldNodes); err != nil {
				t.Fatal(err)
			}
			resume := testing.AllocsPerRun(10, func() {
				if _, err := eng.RunCheckpointed(st, cfg, nodes, CheckpointRun{Resume: cp}); err != nil {
					t.Fatal(err)
				}
			})
			cold := testing.AllocsPerRun(10, func() {
				// Cold runs on used hopNodes work (they ignore seen), so this
				// is the exact steady-state floor the resume path races.
				if _, err := eng.RunWith(coldSt, cfg, coldNodes); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocs/run at n=%d: resume=%.0f cold=%.0f (ceiling %d)", n, resume, cold, allocCeilingSteadyStateN4096)
			if resume > cold {
				t.Errorf("steady-state resume allocates %.0f/run, cold floor is %.0f", resume, cold)
			}
			if resume > allocCeilingSteadyStateN4096 {
				t.Errorf("steady-state resume allocates %.0f/run, recorded ceiling is %d", resume, allocCeilingSteadyStateN4096)
			}
		})
	}
}

// BenchmarkCheckpointResume measures the warm path against the cold path at
// a 50% boundary.
func BenchmarkCheckpointResume(b *testing.B) {
	for _, n := range []int{512, 4096} {
		cfg := Config{RequireVerdict: true}
		eng := NewSequentialEngine()
		var cp *Checkpoint
		if _, err := eng.RunCheckpointed(NewRunState(), cfg, hopNodes(n), CheckpointRun{
			CaptureAfter: []int{n / 2},
			OnCapture:    func(c *Checkpoint) { cp = c },
		}); err != nil {
			b.Fatal(err)
		}
		nodes := hopNodes(n)
		st := NewRunState()
		b.Run(fmt.Sprintf("cold/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunWith(st, cfg, nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("resume50/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunCheckpointed(st, cfg, nodes, CheckpointRun{Resume: cp}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
