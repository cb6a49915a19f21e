package ring

// Benchmarks for the shared event loop and the allocation floors CI gates
// on.

import (
	"context"
	"fmt"
	"testing"
)

func benchRun(b *testing.B, run func() (*Result, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != VerdictAccept {
			b.Fatalf("unexpected verdict %v", res.Verdict)
		}
	}
}

// BenchmarkEngine exercises the scheduler-backed engines on the one-bit
// token ring: n deliveries per run, trace recording on and off.
func BenchmarkEngine(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		nodes := tokenNodes(n)
		for _, withTrace := range []bool{false, true} {
			cfg := Config{RequireVerdict: true, RecordTrace: withTrace}
			suffix := fmt.Sprintf("/n=%d/trace=%v", n, withTrace)
			b.Run("sequential"+suffix, func(b *testing.B) {
				eng := NewSequentialEngine()
				benchRun(b, func() (*Result, error) { return eng.Run(cfg, nodes) })
			})
			b.Run("random"+suffix, func(b *testing.B) {
				eng := engineNamed("random", 11)
				benchRun(b, func() (*Result, error) { return eng.Run(cfg, nodes) })
			})
			b.Run("round-robin"+suffix, func(b *testing.B) {
				eng := engineNamed("round-robin", 0)
				benchRun(b, func() (*Result, error) { return eng.Run(cfg, nodes) })
			})
			b.Run("adversarial"+suffix, func(b *testing.B) {
				eng := engineNamed("adversarial", 0)
				benchRun(b, func() (*Result, error) { return eng.Run(cfg, nodes) })
			})
		}
	}
}

// BenchmarkEngineSteadyState measures the reusable-state hot path: RunWith on
// one RunState, the configuration batch workers run in. With the zero-copy
// payload path (Context.Writer + Reply + bits.Writer.BitString) a steady-state
// token circulation performs no per-message allocation at all; the remaining
// allocs/op is the Result value. The seeded random schedule runs at n=4096
// beside the sequential one: both hand the lone token straight to its
// receiver. The fault schedules run there too; duplicating snapshots every
// duplicate's payload into bytes it reuses across runs.
func BenchmarkEngineSteadyState(b *testing.B) {
	run := func(b *testing.B, eng StatefulEngine, nodes []Node) {
		cfg := Config{RequireVerdict: true}
		st := NewRunState()
		// The count starts after a warm-up run has sized st, and after the
		// rows that build their nodes here have built them.
		if _, err := eng.RunWith(st, cfg, nodes); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.RunWith(st, cfg, nodes)
			if err != nil {
				b.Fatal(err)
			}
			if res.Verdict != VerdictAccept {
				b.Fatalf("unexpected verdict %v", res.Verdict)
			}
		}
	}
	for _, n := range []int{64, 512, 4096} {
		nodes := tokenNodes(n)
		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			run(b, NewSequentialEngine(), nodes)
		})
	}
	b.Run("random/n=4096", func(b *testing.B) {
		run(b, engineNamed("random", 11), tokenNodes(4096))
	})
	for _, name := range []string{"lossy", "duplicating", "crash-restart"} {
		b.Run(name+"/n=4096", func(b *testing.B) {
			run(b, engineNamed(name, 1), tokenNodes(4096))
		})
	}
}

// Recorded allocation floors for the engine loop on the n=4096 one-bit token
// ring. The measured values at the time of recording were 1 (steady state:
// the Result) and 8 (full Run: run state, scheduler, stats, writer); the
// ceilings below leave minimal headroom so a regression on the payload path
// — a copy, a per-message slice, a per-send writer — fails the suite rather
// than silently landing. The pre-zero-copy loop measured 4104. The seeded
// random schedule shares the steady-state ceiling: it measured 3 (the Result
// plus a generator and source built by every Reset) until the generator
// became lazy and reusable, and 1 since. Its full Run measured 13, two more
// than FIFO for the per-link queue arrays. The slice-popped, map-keyed loops
// the ring buffer and the per-link arrays replaced measured about 12300
// (FIFO) and 12344 (random) allocs per full Run.
const (
	allocCeilingSteadyStateN4096   = 2
	allocCeilingFullRunN4096       = 12
	allocCeilingRandomFullRunN4096 = 14
)

// TestEngineLoopAllocRegressionGuard is the alloc-regression gate CI runs: the
// engine loop at n=4096 must stay at (or below) the recorded floors, both on
// a reused RunState and for a full Run that builds its state. The same
// ceilings are enforced with a live cancelable context installed (Config.Ctx
// with a real Done channel), so the amortized cancellation checks can never
// reintroduce per-run allocations.
func TestEngineLoopAllocRegressionGuard(t *testing.T) {
	n := 4096
	nodes := tokenNodes(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if ctx.Done() == nil {
		t.Fatal("test context has no Done channel; the ctx-aware variant would not exercise the polls")
	}
	for _, tc := range []struct {
		name        string
		eng         StatefulEngine
		cfg         Config
		fullCeiling int
	}{
		{"no-ctx", NewSequentialEngine(), Config{RequireVerdict: true}, allocCeilingFullRunN4096},
		{"ctx", NewSequentialEngine(), Config{RequireVerdict: true, Ctx: ctx}, allocCeilingFullRunN4096},
		{"random", engineNamed("random", 7), Config{RequireVerdict: true}, allocCeilingRandomFullRunN4096},
	} {
		st := NewRunState()
		if _, err := tc.eng.RunWith(st, tc.cfg, nodes); err != nil {
			t.Fatal(err)
		}
		steady := testing.AllocsPerRun(10, func() {
			if _, err := tc.eng.RunWith(st, tc.cfg, nodes); err != nil {
				t.Fatal(err)
			}
		})
		full := testing.AllocsPerRun(10, func() {
			if _, err := tc.eng.Run(tc.cfg, nodes); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s allocs/run at n=%d: steady-state=%.0f (ceiling %d), full Run=%.0f (ceiling %d)",
			tc.name, n, steady, allocCeilingSteadyStateN4096, full, tc.fullCeiling)
		if steady > allocCeilingSteadyStateN4096 {
			t.Errorf("%s: steady-state loop allocates %.0f/run, recorded ceiling is %d", tc.name, steady, allocCeilingSteadyStateN4096)
		}
		if full > float64(tc.fullCeiling) {
			t.Errorf("%s: full Run allocates %.0f/run, recorded ceiling is %d", tc.name, full, tc.fullCeiling)
		}
	}
}

// allocCeilingFaultSteadyStateN4096 is the steady-state floor of the fault
// schedules on the n=4096 token ring: the Result, which carries the fault
// report in the same allocation. Lossy and crash-restart measured 4 (lossy:
// also a generator and its source, built by every Reset, and a separate
// report) and 3 (crash-restart, whose generator was a local) until each
// scheduler kept one generator and re-seeded it; a crash that fired added
// two more (its report entry and the report's copy of it). Duplicating
// cloned every duplicate's payload and measured 486 (seed 1, 485
// duplicates) and 522 (seed 2) until it kept them in bytes reused across
// runs.
const allocCeilingFaultSteadyStateN4096 = 1

// TestFaultScheduleAllocRegressionGuard holds the fault schedules to the
// reliable schedules' steady-state floor. Two seeds per schedule: under seed
// 1 the crash-restart victim never crashes within one token tour, under
// seed 2 it does. Lossy pushes and pops a link queue on every delivery, so
// this guard also holds the per-link queues to the floor.
func TestFaultScheduleAllocRegressionGuard(t *testing.T) {
	n := 4096
	nodes := tokenNodes(n)
	cfg := Config{RequireVerdict: true}
	dropped, duplicated, crashed := 0, 0, 0
	for _, name := range []string{"lossy", "duplicating", "crash-restart"} {
		for _, seed := range []int64{1, 2} {
			eng := engineNamed(name, seed)
			st := NewRunState()
			res, err := eng.RunWith(st, cfg, nodes)
			if err != nil {
				t.Fatal(err)
			}
			dropped += res.Faults.Dropped
			duplicated += res.Faults.Duplicates
			crashed += len(res.Faults.Crashed)
			steady := testing.AllocsPerRun(10, func() {
				if _, err := eng.RunWith(st, cfg, nodes); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s allocs/run at n=%d: steady-state=%.0f (ceiling %d)", eng.Name(), n, steady, allocCeilingFaultSteadyStateN4096)
			if steady > allocCeilingFaultSteadyStateN4096 {
				t.Errorf("%s: steady-state run allocates %.0f/run, recorded ceiling is %d", eng.Name(), steady, allocCeilingFaultSteadyStateN4096)
			}
		}
	}
	if dropped == 0 || duplicated == 0 || crashed == 0 {
		t.Errorf("the guard ran %d drops, %d duplicates and %d crashes; it must cover every fault path", dropped, duplicated, crashed)
	}
}
