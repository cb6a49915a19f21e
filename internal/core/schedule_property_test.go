package core

// The schedule-independence property, stated over the full schedule axis: for
// every paper algorithm, the verdict AND the exact bit/message totals must be
// identical under FIFO, five random-order seeds, round-robin, the
// bounded-delay adversary and the sharded engine at forced worker counts — on
// a member word and on a non-member word. No algorithm in this repository is
// legitimately schedule-sensitive: recognition is leader-initiated with a
// single token (or a fixed pass structure) in flight, so every legal delivery
// order serializes to the same computation. An algorithm that fails here is relying on global
// FIFO delivery, which the asynchronous model does not grant.

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// scheduleAxis is the full set of delivery schedules the property is checked
// under: every built-in engine, with five seeds for the randomized one.
func scheduleAxis(t *testing.T) []ring.Engine {
	t.Helper()
	engines := []ring.Engine{
		ring.NewSequentialEngine(),
		mustEngine(t, "round-robin", 0),
		mustEngine(t, "adversarial", 0),
		ring.NewScheduledEngine("adversarial(bound=2)", func() ring.Scheduler { return ring.NewAdversarialScheduler(2) }),
	}
	for seed := int64(1); seed <= 5; seed++ {
		engines = append(engines, mustEngine(t, "random", seed))
	}
	// The sharded engine with forced worker counts: the automatic sizing
	// would fall back to the serial loop on property-sized rings, and the
	// bit-identity claim is about the genuinely parallel path.
	for _, workers := range []int{2, 3, 8} {
		engines = append(engines, ring.NewShardedEngineWorkers(workers))
	}
	// Every named schedule joins the axis by classification, not by name:
	// exactly-once delivery is precisely the guarantee under which the
	// bit-identity property is stated. Fault schedules that only delay or
	// retransmit (lossy, crash-restart) are therefore swept here too;
	// at-least-once and crash-prone delivery have their own property test
	// (fault_property_test.go), because bit-identity is not promised there.
	for _, name := range ring.ScheduleNames() {
		eng, err := ring.NewEngineByName(name, 17)
		if err != nil {
			t.Fatalf("schedule %q from ScheduleNames does not resolve: %v", name, err)
		}
		if ring.ScheduleDeliveryGuarantee(name) != ring.ExactlyOnce {
			continue
		}
		engines = append(engines, eng)
	}
	return engines
}

func TestPropertyFullScheduleAxisAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	engines := scheduleAxis(t)
	for _, rec := range allRecognizers(t) {
		language := rec.Language()
		n := 5 + rng.Intn(24)
		words := make([]lang.Word, 0, 2)
		if member, _, err := lang.MemberOrSkip(language, n, 8, rng); err == nil {
			words = append(words, member)
		}
		if nonMember, ok := language.GenerateNonMember(n, rng); ok {
			words = append(words, nonMember)
		}
		if len(words) == 0 {
			t.Fatalf("%s: no test words near n=%d", rec.Name(), n)
		}
		for _, word := range words {
			var firstBits, firstMessages int
			var firstVerdict ring.Verdict
			for i, engine := range engines {
				res, err := Run(rec, word, RunOptions{Engine: engine})
				if err != nil {
					t.Fatalf("%s under %s on %q: %v", rec.Name(), engine.Name(), word.String(), err)
				}
				if i == 0 {
					firstBits, firstMessages, firstVerdict = res.Stats.Bits, res.Stats.Messages, res.Verdict
					continue
				}
				if res.Verdict != firstVerdict {
					t.Errorf("%s on %q: %s verdict %v, %s verdict %v",
						rec.Name(), word.String(), engines[0].Name(), firstVerdict, engine.Name(), res.Verdict)
				}
				if res.Stats.Bits != firstBits || res.Stats.Messages != firstMessages {
					t.Errorf("%s on %q: %s counted %d bits/%d msgs, %s counted %d bits/%d msgs",
						rec.Name(), word.String(), engines[0].Name(), firstBits, firstMessages,
						engine.Name(), res.Stats.Bits, res.Stats.Messages)
				}
			}
		}
	}
}

func TestRunOptionsScheduleSelection(t *testing.T) {
	rec := NewThreeCounters()
	word := lang.WordFromString("001122")
	base, err := Run(rec, word, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ring.ScheduleNames() {
		res, err := Run(rec, word, RunOptions{Engine: mustEngine(t, name, 3)})
		if ring.ScheduleDeliveryGuarantee(name) != ring.ExactlyOnce {
			// The raw recognizer does not tolerate weaker-than-exactly-once
			// delivery; selecting such a schedule must refuse, typed.
			if !errors.Is(err, ErrDeliveryNotTolerated) {
				t.Errorf("schedule %q: got %v, want ErrDeliveryNotTolerated", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("schedule %q: %v", name, err)
		}
		if res.Verdict != base.Verdict || res.Stats.Bits != base.Stats.Bits {
			t.Errorf("schedule %q: verdict=%v bits=%d, want %v/%d",
				name, res.Verdict, res.Stats.Bits, base.Verdict, base.Stats.Bits)
		}
	}
}
