package core

import (
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// FuzzFaultScheduleAgreement fuzzes the exactly-once half of the fault axis:
// for an arbitrary word, seed, and drop rate, a run under the lossy schedule
// (drops plus go-back-N retransmission) and under crash-restart (a bounded
// outage with buffered replay) must be indistinguishable — same verdict, same
// bit and message totals — from the sequential run. The link layer absorbs
// the faults; the algorithm must never see them.
func FuzzFaultScheduleAgreement(f *testing.F) {
	f.Add("0110101101", int64(1), byte(32))
	f.Add("111111111", int64(17), byte(200))
	f.Add("0101", int64(3), byte(255))
	f.Add("10", int64(99), byte(0))
	f.Fuzz(func(t *testing.T, raw string, seed int64, drop byte) {
		rec := NewMajority()
		word := make(lang.Word, 0, len(raw))
		for _, r := range raw {
			if len(word) == 64 {
				break
			}
			if r%2 == 0 {
				word = append(word, '0')
			} else {
				word = append(word, '1')
			}
		}
		if len(word) < 2 {
			return
		}
		base, err := Run(rec, word, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}

		// Map the fuzzed byte into (0, 1); 0 falls back to the default rate.
		rate := float64(drop) / 256
		lossy := func() ring.Scheduler { return ring.NewLossyScheduler(seed, rate, ring.DefaultMaxRetransmits) }
		engines := []ring.Engine{
			ring.NewScheduledEngine(lossy().Name(), lossy),
			mustEngine(t, "crash-restart", seed),
		}
		for _, engine := range engines {
			res, err := Run(rec, word, RunOptions{Engine: engine})
			if err != nil {
				t.Fatalf("%s on %q: %v", engine.Name(), word.String(), err)
			}
			if res.Verdict != base.Verdict || res.Stats.Bits != base.Stats.Bits ||
				res.Stats.Messages != base.Stats.Messages {
				t.Errorf("%s on %q: %v with %d bits/%d msgs, sequential %v with %d bits/%d msgs",
					engine.Name(), word.String(), res.Verdict, res.Stats.Bits, res.Stats.Messages,
					base.Verdict, base.Stats.Bits, base.Stats.Messages)
			}
			if res.Faults == nil {
				t.Errorf("%s: no fault report attached", engine.Name())
			}
		}
	})
}
