package election

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/ring"
)

// Every protocol, hardened with the dedup layer, elects the same winner under
// at-least-once delivery as under the sequential schedule — at one extra bit
// per message, which the duplicates themselves never inflate (stats are
// recorded at send time, not delivery time).
// duplicating runs the at-least-once schedule at rate 0.25, twice the
// catalog default, so a short election meets duplicates.
func duplicating(seed int64) ring.Engine {
	build := func() ring.Scheduler { return ring.NewDuplicatingScheduler(seed, 0.25) }
	return ring.NewScheduledEngine(build().Name(), build)
}

func mustEngine(t testing.TB, name string, seed int64) ring.Engine {
	t.Helper()
	e, err := ring.NewEngineByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestElectionDedupToleratesAtLeastOnce(t *testing.T) {
	ids := RandomIDs(9, rand.New(rand.NewSource(42)))
	for _, p := range []Protocol{ChangRoberts, DolevKlaweRodeh, HirschbergSinclair} {
		base, err := RunWith(p, ids, RunOptions{Dedup: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", p, err)
		}
		duplicated := 0
		for seed := int64(1); seed <= 5; seed++ {
			out, err := RunWith(p, ids, RunOptions{
				Engine: duplicating(seed),
				Dedup:  true,
			})
			if err != nil {
				t.Fatalf("%s duplicating seed %d: %v", p, seed, err)
			}
			if out.WinnerIndex != base.WinnerIndex || out.WinnerID != base.WinnerID {
				t.Errorf("%s seed %d: elected %d (id %d), sequential elected %d (id %d)",
					p, seed, out.WinnerIndex, out.WinnerID, base.WinnerIndex, base.WinnerID)
			}
			if out.Stats.Bits != base.Stats.Bits || out.Stats.Messages != base.Stats.Messages {
				t.Errorf("%s seed %d: %d bits/%d msgs, sequential %d/%d — delivered duplicates must not be billed",
					p, seed, out.Stats.Bits, out.Stats.Messages, base.Stats.Bits, base.Stats.Messages)
			}
			if out.Faults != nil {
				duplicated += out.Faults.Duplicates
			}
		}
		if duplicated == 0 {
			t.Errorf("%s: five seeds at rate 0.25 injected no duplicate; the sweep is vacuous", p)
		}
	}
}

// Weaker-than-tolerated delivery is refused, typed, unless the caller opts in.
func TestElectionRefusesUntoleratedDelivery(t *testing.T) {
	ids := AscendingIDs(6)
	lossyAt := func() ring.Scheduler { return ring.NewLossyScheduler(1, 0.25, 3) }
	lossy := ring.NewScheduledEngine(lossyAt().Name(), lossyAt)
	cases := []struct {
		engine ring.Engine
		opts   RunOptions
		wantOK bool
	}{
		{duplicating(1), RunOptions{}, false},
		{duplicating(1), RunOptions{Dedup: true}, true},
		{duplicating(1), RunOptions{AllowFaults: true}, true},
		{mustEngine(t, "crash-repair", 1), RunOptions{}, false},
		{mustEngine(t, "crash-repair", 1), RunOptions{Dedup: true}, false},
		// Exactly-once fault schedules need no opt-in at all.
		{lossy, RunOptions{}, true},
		{mustEngine(t, "crash-restart", 1), RunOptions{}, true},
	}
	for _, tc := range cases {
		opts := tc.opts
		opts.Engine = tc.engine
		_, err := RunWith(ChangRoberts, ids, opts)
		if tc.wantOK {
			if err != nil {
				t.Errorf("%s with %+v: %v", tc.engine.Name(), tc.opts, err)
			}
			continue
		}
		if !errors.Is(err, ErrDeliveryNotTolerated) {
			t.Errorf("%s with %+v: got %v, want ErrDeliveryNotTolerated", tc.engine.Name(), tc.opts, err)
		}
	}
}

// An explicitly allowed crash-prone election is a deterministic function of
// the seed, and every outcome is typed: either a coherent election among the
// survivors, or one of the election errors (the crash can eat the would-be
// winner's candidacy, or the engine's message budget stops a candidate that
// circulates past its swallower forever).
func TestElectionUnderCrashRepairIsTypedAndDeterministic(t *testing.T) {
	ids := RandomIDs(8, rand.New(rand.NewSource(7)))
	successes := 0
	for seed := int64(1); seed <= 20; seed++ {
		run := func() (*Outcome, error) {
			return RunWith(ChangRoberts, ids, RunOptions{
				Engine:      mustEngine(t, "crash-repair", seed),
				AllowFaults: true,
			})
		}
		a, aErr := run()
		b, bErr := run()
		//ringvet:ignore errsentinel -- determinism pin: the two runs must render the very same error, not just share a sentinel; the typed-failure check below is the errors.Is one
		if (aErr == nil) != (bErr == nil) || (aErr != nil && aErr.Error() != bErr.Error()) {
			t.Fatalf("seed %d: two runs disagree: %v vs %v", seed, aErr, bErr)
		}
		if aErr != nil {
			switch {
			case errors.Is(aErr, ErrNoWinner), errors.Is(aErr, ErrManyWinners),
				errors.Is(aErr, ErrDisagreement), errors.Is(aErr, ring.ErrMessageBudgetExceeded):
			default:
				t.Errorf("seed %d: untyped failure %v", seed, aErr)
			}
			continue
		}
		successes++
		if a.WinnerIndex != b.WinnerIndex || a.WinnerID != b.WinnerID {
			t.Errorf("seed %d: winners differ across identical runs: %d vs %d", seed, a.WinnerIndex, b.WinnerIndex)
		}
		if a.Faults == nil {
			t.Fatalf("seed %d: crash-prone run attached no fault report", seed)
		}
		for _, proc := range a.Faults.Crashed {
			if proc == a.WinnerIndex {
				t.Errorf("seed %d: elected processor %d is crashed", seed, proc)
			}
		}
	}
	if successes == 0 {
		t.Error("no seed in 1..20 produced a successful election under crash-repair")
	}
}
