package core

// The fault-axis property, stated over delivery guarantees instead of
// schedule names: (1) every schedule that still guarantees exactly-once
// delivery — however it misbehaves internally — yields verdicts and bit
// totals identical to the sequential run, for every recognizer and seed;
// (2) a schedule that breaks exactly-once is refused with the typed
// ErrDeliveryNotTolerated, never silently run into a wrong verdict; (3) the
// alternating-bit dedup wrapper restores agreement under at-least-once
// delivery; (4) an explicitly allowed faulty run is a deterministic function
// of the seed, so a fault measurement is reproducible. No branch below names
// an individual fault schedule: a new schedule joins the right clause by its
// ScheduleDeliveryGuarantee classification alone.

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// faultAxisWords picks one member and (when the language can produce one) one
// non-member word per recognizer, deterministically.
func faultAxisWords(t *testing.T, rec Recognizer, rng *rand.Rand) []lang.Word {
	t.Helper()
	language := rec.Language()
	n := 4 + rng.Intn(12)
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
	return words
}

// seededFaultSchedules returns the catalog's seeded schedules grouped by the
// delivery guarantee they leave standing.
func seededFaultSchedules() (exactlyOnce, weaker []string) {
	for _, name := range ring.ScheduleNames() {
		if !ring.ScheduleUsesSeed(name) {
			continue
		}
		if ring.ScheduleDeliveryGuarantee(name) == ring.ExactlyOnce {
			exactlyOnce = append(exactlyOnce, name)
		} else {
			weaker = append(weaker, name)
		}
	}
	return exactlyOnce, weaker
}

func TestPropertyFaultSchedulesAgreeOrRefuse(t *testing.T) {
	exactlyOnce, weaker := seededFaultSchedules()
	if len(exactlyOnce) < 2 || len(weaker) < 2 {
		t.Fatalf("catalog lost its fault axis: exactly-once %v, weaker %v", exactlyOnce, weaker)
	}
	rng := rand.New(rand.NewSource(231))
	faultReports := 0
	for _, rec := range allRecognizers(t) {
		for _, word := range faultAxisWords(t, rec, rng) {
			base, err := Run(rec, word, RunOptions{})
			if err != nil {
				t.Fatalf("%s on %q: %v", rec.Name(), word.String(), err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, name := range exactlyOnce {
					res, err := Run(rec, word, RunOptions{Engine: mustEngine(t, name, seed)})
					if err != nil {
						t.Fatalf("%s under %s seed %d on %q: %v", rec.Name(), name, seed, word.String(), err)
					}
					if res.Verdict != base.Verdict || res.Stats.Bits != base.Stats.Bits ||
						res.Stats.Messages != base.Stats.Messages {
						t.Errorf("%s under %s seed %d on %q: %v/%d bits, sequential %v/%d — exactly-once delivery must be invisible",
							rec.Name(), name, seed, word.String(), res.Verdict, res.Stats.Bits, base.Verdict, base.Stats.Bits)
					}
					if res.Faults != nil {
						faultReports++
					}
				}
				for _, name := range weaker {
					// The raw recognizer must be refused, typed — a wrong
					// verdict with no error would poison every caller that
					// trusts the verdict.
					_, err := Run(rec, word, RunOptions{Engine: mustEngine(t, name, seed)})
					if !errors.Is(err, ErrDeliveryNotTolerated) {
						t.Errorf("%s under %s seed %d: got %v, want ErrDeliveryNotTolerated", rec.Name(), name, seed, err)
					}
				}
			}
		}
	}
	// The seeded exactly-once set contains genuinely fault-injecting schedules
	// (not just random delivery order); their runs carry fault reports.
	if faultReports == 0 {
		t.Error("no exactly-once run attached a fault report; the agreement sweep exercised no fault schedule")
	}
}

func TestPropertyDedupRestoresAtLeastOnceAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	duplicated := 0
	for _, rec := range allRecognizers(t) {
		wrapped := WithDedup(rec)
		for _, word := range faultAxisWords(t, rec, rng) {
			base, err := Run(wrapped, word, RunOptions{})
			if err != nil {
				t.Fatalf("%s on %q: %v", wrapped.Name(), word.String(), err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				for _, name := range ring.ScheduleNames() {
					if ring.ScheduleDeliveryGuarantee(name) != ring.AtLeastOnce {
						continue
					}
					res, err := Run(wrapped, word, RunOptions{Engine: mustEngine(t, name, seed)})
					if err != nil {
						t.Fatalf("%s under %s seed %d on %q: %v", wrapped.Name(), name, seed, word.String(), err)
					}
					if res.Verdict != base.Verdict || res.Stats.Bits != base.Stats.Bits ||
						res.Stats.Messages != base.Stats.Messages {
						t.Errorf("%s under %s seed %d on %q: %v/%d bits, sequential %v/%d — dedup must absorb duplicates",
							wrapped.Name(), name, seed, word.String(), res.Verdict, res.Stats.Bits, base.Verdict, base.Stats.Bits)
					}
					if res.Faults != nil {
						duplicated += res.Faults.Duplicates
					}
				}
			}
		}
	}
	if duplicated == 0 {
		t.Error("no duplicate was injected across the whole sweep; the property is vacuous")
	}
}

func TestPropertyAllowedFaultRunsAreDeterministic(t *testing.T) {
	_, weaker := seededFaultSchedules()
	rec := NewThreeCounters()
	word := lang.WordFromString("001122")
	for _, name := range weaker {
		for seed := int64(1); seed <= 5; seed++ {
			type outcome struct {
				verdict ring.Verdict
				bits    int
				err     string
			}
			run := func() outcome {
				res, err := Run(rec, word, RunOptions{Engine: mustEngine(t, name, seed), AllowFaults: true})
				if err != nil {
					return outcome{err: err.Error()}
				}
				return outcome{verdict: res.Verdict, bits: res.Stats.Bits}
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("%s seed %d: two allowed runs disagree: %+v vs %+v — the fault fate must be a function of the seed",
					name, seed, a, b)
			}
		}
	}
}
