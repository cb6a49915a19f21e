package bench

import (
	"fmt"
	"math/rand"

	"ringlang/internal/core"
	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// FaultSizes are the E17 ring sizes: the E13 grid sizes (divisible by 3 and
// odd, so every algorithm of the shared recognizer set has member words).
var FaultSizes = []int{33, 99, 201}

// faultVariant is one point on the delivery-fate axis of the E17 sweep.
type faultVariant struct {
	Schedule string
	Seed     int64
}

// faultDimension is the fault axis E17 sweeps: every fault schedule of the
// catalog, one seed each (seeds only reshuffle which deliveries fault; the
// engine-accounted totals are seed-independent by construction, which the
// sweep's agreement column verifies).
func faultDimension() []faultVariant {
	return []faultVariant{
		{Schedule: "lossy", Seed: 1},
		{Schedule: "duplicating", Seed: 1},
		{Schedule: "crash-restart", Seed: 1},
		{Schedule: "crash-repair", Seed: 1},
	}
}

// faultOverhead renders the cell's fault accounting as one column: the work
// the schedule injected that the bit totals deliberately exclude.
func faultOverhead(f *ring.FaultReport) string {
	if f == nil {
		return "-"
	}
	switch {
	case f.Dropped > 0 || f.RetransmitBits > 0:
		return fmt.Sprintf("drop=%d retx=%db", f.Dropped, f.RetransmitBits)
	case f.Duplicates > 0 || f.DuplicateBits > 0:
		return fmt.Sprintf("dup=%d +%db", f.Duplicates, f.DuplicateBits)
	case len(f.Crashed) > 0:
		return fmt.Sprintf("crash=%v reroute=%d defer=%d", f.Crashed, f.Rerouted, f.Deferred)
	default:
		return "none"
	}
}

// ExperimentE17 is the fault sweep: the delivery-fate axis (lossy,
// duplicating, crash-restart, crash-repair) across the E13 recognizer set and
// ring sizes, plus elect-then-recognize rows that put leader election in
// front of recognition under the same schedules. The sweep hard-fails unless
// the fault overhead stays out of the accounted totals: exactly-once fault
// schedules must reproduce the sequential bits exactly, at-least-once
// delivery must cost exactly the dedup layer's one framing bit per message,
// and only the crash-prone schedule — which genuinely changes the ring — is
// allowed to diverge (its row reports the crash instead of agreeing).
func ExperimentE17(sizes []int) (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "fault axis: lossy/duplicating/crash delivery and elect-then-recognize overhead",
		PaperClaim: "the bounds are schedule-independent and count transmitted bits, not transport luck: " +
			"retransmissions and duplicates are overhead outside the accounted totals",
		Columns: []string{"phase", "algorithm", "n", "schedule", "bits", "msgs",
			"elect bits", "elect msgs", "fault overhead", "agree"},
	}
	variants := faultDimension()
	recs := []core.Recognizer{
		core.NewThreeCounters(),
		core.NewBalancedCounter(),
		core.NewCompareWcW(),
	}
	wordOpts := MeasureOptions{}.normalize()

	// Recognition grid: algorithms × sizes × fault schedules, each cell a
	// fresh engine (crash schedules draw their crash point from the engine's
	// rng at Reset, so a per-cell engine keeps every cell deterministic).
	for _, rec := range recs {
		for _, n := range sizes {
			word, err := sweepWord(rec, n, wordOpts)
			if err != nil {
				return nil, err
			}
			base, err := core.Run(rec, word, core.RunOptions{Ctx: defaultCtx})
			if err != nil {
				return nil, fmt.Errorf("bench: E17 baseline %s at n=%d: %w", rec.Name(), n, err)
			}
			t.AddRow("recognize", rec.Name(), fmtInt(n), "sequential",
				fmtInt(base.Stats.Bits), fmtInt(base.Stats.Messages), "-", "-", "-", "baseline")
			t.AddRecord(BenchRecord{Algorithm: rec.Name(), Schedule: "sequential", N: n,
				Bits: base.Stats.Bits, Messages: base.Stats.Messages})
			for _, v := range variants {
				runRec := rec
				if ring.ScheduleDeliveryGuarantee(v.Schedule) == ring.AtLeastOnce {
					// At-least-once delivery is absorbed by the alternating-bit
					// dedup wrapper; its framing bit is the entire price.
					runRec = core.WithDedup(rec)
				}
				res, err := runFaultCell(runRec, word, v)
				if err != nil {
					return nil, fmt.Errorf("bench: E17 %s under %s at n=%d: %w", rec.Name(), v.Schedule, n, err)
				}
				agree, err := faultAgreement(v.Schedule, base, res)
				if err != nil {
					return nil, fmt.Errorf("bench: E17 %s at n=%d: %w", rec.Name(), n, err)
				}
				t.AddRow("recognize", runRec.Name(), fmtInt(n), v.Schedule,
					fmtInt(res.Stats.Bits), fmtInt(res.Stats.Messages), "-", "-",
					faultOverhead(res.Faults), agree)
				t.AddRecord(BenchRecord{Algorithm: runRec.Name(), Schedule: v.Schedule, N: n,
					Bits: res.Stats.Bits, Messages: res.Stats.Messages})
			}
		}
	}

	// Elect-then-recognize: Hirschberg–Sinclair election in front of the
	// three-counters recognizer, under the sequential baseline and every
	// fault schedule recognition tolerates. The leader the recognition layer
	// assumes for free becomes a measured bit/message overhead — and the
	// fault schedules stress both phases of the composition.
	rec := recs[0]
	for _, n := range sizes {
		word, err := sweepWord(rec, n, wordOpts)
		if err != nil {
			return nil, err
		}
		var base *core.ScenarioResult
		for _, schedule := range []string{"sequential", "lossy", "duplicating", "crash-restart"} {
			engine, err := ring.NewEngineByName(schedule, 1)
			if err != nil {
				return nil, err
			}
			ids := election.RandomIDs(len(word), rand.New(rand.NewSource(1)))
			res, err := core.ElectThenRecognize(election.HirschbergSinclair, rec, word, ids,
				core.RunOptions{Engine: engine, Ctx: defaultCtx})
			if err != nil {
				return nil, fmt.Errorf("bench: E17 elect+recognize under %s at n=%d: %w", schedule, n, err)
			}
			agree, err := scenarioAgreement(rec, schedule, base, res)
			if err != nil {
				return nil, fmt.Errorf("bench: E17 at n=%d: %w", n, err)
			}
			if schedule == "sequential" {
				base = res
			}
			overhead := faultOverhead(res.Recognition.Faults)
			if res.Election.Faults != nil {
				overhead = faultOverhead(res.Election.Faults) + " / " + overhead
			}
			t.AddRow("elect+recognize", "hs→"+rec.Name(), fmtInt(n), schedule,
				fmtInt(res.Recognition.Stats.Bits), fmtInt(res.Recognition.Stats.Messages),
				fmtInt(res.Election.Bits), fmtInt(res.Election.Messages), overhead, agree)
			t.AddRecord(BenchRecord{Algorithm: "elect+" + rec.Name(), Schedule: schedule, N: n,
				Bits:     res.Election.Bits + res.Recognition.Stats.Bits,
				Messages: res.Election.Messages + res.Recognition.Stats.Messages})
		}
	}
	t.Notes = append(t.Notes,
		"bits/msgs are the engine-accounted totals; the fault-overhead column (drops, retransmitted bits, duplicates, crash reroutes/deferrals) is everything the schedule injected on top, deliberately excluded from them",
		"duplicating rows run the +dedup wrapper: at-least-once delivery costs exactly one framing bit per message, and the duplicates themselves are never billed",
		"crash-repair removes a processor and splices the ring, so its verdict may legitimately diverge — its row reports the crash instead of an agreement claim",
		"elect+recognize rows rotate the ring so the elected processor holds the leader seat; the election columns are the price of the leader the recognition phase otherwise assumes for free",
	)
	return t, nil
}

// runFaultCell runs one recognition grid cell. The crash schedulers draw
// their crash point at Reset from the seed, within the first two ring tours —
// but a one-tour recognition run can terminate before a late draw, in which
// case no fault fires and the cell is vacuous. To keep the crash rows
// meaningful the cell scans seeds upward from the variant's and reports the
// first run whose crash lands inside it; the scan is deterministic, so the
// checked-in records are too.
func runFaultCell(rec core.Recognizer, word lang.Word, v faultVariant) (*ring.Result, error) {
	guarantee := ring.ScheduleDeliveryGuarantee(v.Schedule)
	crash := v.Schedule == "crash-restart" || guarantee == ring.CrashProne
	const seedScan = 32
	for seed := v.Seed; seed < v.Seed+seedScan; seed++ {
		engine, err := ring.NewEngineByName(v.Schedule, seed)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(rec, word, core.RunOptions{
			Engine: engine, Ctx: defaultCtx, AllowFaults: guarantee == ring.CrashProne,
		})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if res.Faults == nil {
			return nil, fmt.Errorf("seed %d: no fault report", seed)
		}
		if !crash || len(res.Faults.Crashed) > 0 {
			return res, nil
		}
	}
	return nil, fmt.Errorf("no seed in [%d,%d) crashes before the run terminates", v.Seed, v.Seed+seedScan)
}

// faultAgreement checks one recognition cell against its sequential baseline
// and renders the agree column; a violated delivery-guarantee invariant is an
// experiment error, not a table note.
func faultAgreement(schedule string, base, res *ring.Result) (string, error) {
	switch ring.ScheduleDeliveryGuarantee(schedule) {
	case ring.ExactlyOnce:
		if res.Verdict != base.Verdict || res.Stats.Bits != base.Stats.Bits ||
			res.Stats.Messages != base.Stats.Messages {
			return "", fmt.Errorf("%s diverged from sequential: %v/%d bits/%d msgs vs %v/%d/%d",
				schedule, res.Verdict, res.Stats.Bits, res.Stats.Messages,
				base.Verdict, base.Stats.Bits, base.Stats.Messages)
		}
		return "bit-identical", nil
	case ring.AtLeastOnce:
		if res.Verdict != base.Verdict || res.Stats.Messages != base.Stats.Messages ||
			res.Stats.Bits != base.Stats.Bits+base.Stats.Messages {
			return "", fmt.Errorf("%s+dedup: %v/%d bits/%d msgs, want %v/%d+%d/%d",
				schedule, res.Verdict, res.Stats.Bits, res.Stats.Messages,
				base.Verdict, base.Stats.Bits, base.Stats.Messages, base.Stats.Messages)
		}
		return "verdict, +1 bit/msg", nil
	default:
		if len(res.Faults.Crashed) == 0 {
			return "", fmt.Errorf("%s: crash-prone run crashed nobody", schedule)
		}
		return fmt.Sprintf("n/a (lost proc %d)", res.Faults.Crashed[0]), nil
	}
}

// scenarioAgreement checks one elect-then-recognize cell against the
// sequential scenario (base is nil for the baseline cell itself): the same
// processor must win under every schedule, the verdict must match the rotated
// word's membership, and the overhead must follow the schedule's guarantee.
func scenarioAgreement(rec core.Recognizer, schedule string, base *core.ScenarioResult, res *core.ScenarioResult) (string, error) {
	want := ring.VerdictReject
	if rec.Language().Contains(res.Rotated) {
		want = ring.VerdictAccept
	}
	if res.Recognition.Verdict != want {
		return "", fmt.Errorf("elect+recognize under %s: verdict %v on rotated word, language says %v",
			schedule, res.Recognition.Verdict, want)
	}
	if base == nil {
		return "baseline", nil
	}
	if res.Election.WinnerIndex != base.Election.WinnerIndex ||
		res.Election.WinnerID != base.Election.WinnerID {
		return "", fmt.Errorf("elect+recognize under %s: elected %d (id %d), sequential elected %d (id %d)",
			schedule, res.Election.WinnerIndex, res.Election.WinnerID,
			base.Election.WinnerIndex, base.Election.WinnerID)
	}
	framing := 0
	if ring.ScheduleDeliveryGuarantee(schedule) == ring.AtLeastOnce {
		// Both phases ran behind the dedup layer: one framing bit per message.
		framing = 1
	}
	if res.Election.Messages != base.Election.Messages ||
		res.Election.Bits != base.Election.Bits+framing*base.Election.Messages ||
		res.Recognition.Stats.Messages != base.Recognition.Stats.Messages ||
		res.Recognition.Stats.Bits != base.Recognition.Stats.Bits+framing*base.Recognition.Stats.Messages {
		return "", fmt.Errorf("elect+recognize under %s: %d/%d elect + %d/%d recognize bits/msgs, sequential %d/%d + %d/%d (framing %d)",
			schedule, res.Election.Bits, res.Election.Messages,
			res.Recognition.Stats.Bits, res.Recognition.Stats.Messages,
			base.Election.Bits, base.Election.Messages,
			base.Recognition.Stats.Bits, base.Recognition.Stats.Messages, framing)
	}
	if framing > 0 {
		return "winner, +1 bit/msg", nil
	}
	return "winner, bit-identical", nil
}
