package bench

import (
	"fmt"

	"ringlang/internal/core"
	"ringlang/internal/exec"
	"ringlang/internal/ring"
)

// ScheduleVariant is one point on the schedule axis of the full-factorial
// sweep: a named delivery schedule plus the seed randomized schedules run
// under.
type ScheduleVariant struct {
	Schedule string
	Seed     int64
}

// Label renders the variant as a column header.
func (v ScheduleVariant) Label() string {
	if v.Schedule == "random" {
		return fmt.Sprintf("random(%d)", v.Seed)
	}
	return v.Schedule
}

// ScheduleDimension is the schedule axis experiments sweep, alongside the
// algorithm and ring-size axes: every built-in schedule, with two seeds for
// the randomized one. The exactly-once fault schedules ride along — their
// drops, retransmissions and restarts are transport overhead outside the
// accounted bits, so their columns must agree with the reliable ones. (The
// weaker fault schedules, duplicating and crash-repair, live in E17: raw
// algorithms refuse them.)
func ScheduleDimension() []ScheduleVariant {
	return []ScheduleVariant{
		{Schedule: "sequential"},
		{Schedule: "random", Seed: 1},
		{Schedule: "random", Seed: 2},
		{Schedule: "round-robin"},
		{Schedule: "adversarial"},
		{Schedule: "lossy", Seed: 1},
		{Schedule: "crash-restart", Seed: 1},
	}
}

// ExperimentE13 is the full-factorial schedule sweep: algorithms × ring sizes
// × delivery schedules, one bit-total column per schedule. The paper proves
// its bounds for every legal asynchronous schedule, so all columns of a row
// must agree — the table makes the schedule an enumerable experiment axis
// instead of a hardcoded engine choice.
//
// The grid is embarrassingly parallel — every cell is an independent
// execution on a word fixed per (algorithm, n) — so the cells fan out over a
// batch-execution pool (bench's default worker count, see SetDefaultWorkers)
// and the rows are assembled from the ordered results.
func ExperimentE13(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E13",
		Title:      "Schedule axis: bit totals across delivery schedules",
		PaperClaim: "bit complexity is schedule-independent: the bounds hold under every legal asynchronous schedule",
	}
	variants := ScheduleDimension()
	t.Columns = []string{"algorithm", "n"}
	for _, v := range variants {
		t.Columns = append(t.Columns, v.Label())
	}
	t.Columns = append(t.Columns, "agree")

	recs := []core.Recognizer{
		core.NewThreeCounters(),
		core.NewBalancedCounter(),
		core.NewCompareWcW(),
	}

	// One engine per variant, shared by every cell of its column: engines
	// are safe for concurrent use, and a shared engine is what lets each
	// pool worker reuse one run state per column instead of one per cell.
	// The engine is built explicitly so v.Seed drives only the delivery
	// order; the word generator keeps its default seed and every variant of
	// a row runs the exact same word.
	engines := make([]ring.Engine, len(variants))
	for i, v := range variants {
		engine, err := ring.NewEngineByName(v.Schedule, v.Seed)
		if err != nil {
			return nil, err
		}
		engines[i] = engine
	}

	// One job per (algorithm, n, schedule) cell, in row-major order.
	wordOpts := MeasureOptions{}.normalize()
	var jobs []exec.Job
	for _, rec := range recs {
		for _, n := range sizes {
			word, err := sweepWord(rec, n, wordOpts)
			if err != nil {
				return nil, err
			}
			for i := range variants {
				jobs = append(jobs, exec.Job{Rec: rec, Word: word, Engine: engines[i], Check: true})
			}
		}
	}
	pool := exec.NewPool(wordOpts.Workers)
	results := pool.RunBatchContext(wordOpts.Ctx, jobs)
	pool.Close()

	disagreements := 0
	cell := 0
	for _, rec := range recs {
		for range sizes {
			row := []string{rec.Name(), ""}
			first, agree := 0, true
			for i, v := range variants {
				r := results[cell]
				if r.Err != nil {
					return nil, fmt.Errorf("schedule %s: %w", v.Label(), r.Err)
				}
				row[1] = fmtInt(len(jobs[cell].Word))
				if i == 0 {
					first = r.Stats.Bits
				} else if r.Stats.Bits != first {
					agree = false
				}
				row = append(row, fmtInt(r.Stats.Bits))
				cell++
			}
			verdict := "yes"
			if !agree {
				verdict = "NO"
				disagreements++
			}
			row = append(row, verdict)
			t.AddRow(row...)
		}
	}
	if disagreements == 0 {
		t.Notes = append(t.Notes, "all schedules agree on every (algorithm, n) cell, as the model requires")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("%d cells disagree — a schedule-sensitive algorithm slipped in", disagreements))
	}
	return t, nil
}
