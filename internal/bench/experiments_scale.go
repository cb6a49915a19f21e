package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// ScaleSizes are the E15 ring sizes: perfect squares (so the count
// recognizer's square-length language has a member at exactly n), rising to
// the million-processor ring the large-ring engine work targets.
var ScaleSizes = []int{1 << 12, 1 << 16, 1 << 20}

// scaleEngines are the engines E15 compares: the serial struct-of-arrays
// loop and the segment-sharded engine. The sharded engine sizes itself to
// the host — on a single-core machine it falls back to the serial loop, and
// the record says so through identical timings, not through a skipped row.
func scaleEngines() []ring.Engine {
	return []ring.Engine{
		ring.NewSequentialEngine(),
		ring.NewShardedEngine(),
	}
}

// scaleIters picks how many timed iterations a cell of size n gets: enough
// to average out scheduler noise at small n, few enough that the 2^20 cell
// stays respectful of CI time.
func scaleIters(n int, suite Suite) int {
	budget := 1 << 22
	if suite == SuiteQuick {
		budget = 1 << 18
	}
	iters := budget / n
	if iters < 3 {
		iters = 3
	}
	return iters
}

// timedRuns executes the recognizer warmups+iters times with a reused run
// state, iteration i on words[i mod len(words)], and returns the per-run
// wall time and steady-state heap allocations of the iters timed runs plus
// the (schedule-independent) result of the final run. The run state is
// reused and the ring is relabelled in place run to run (core.NodeReuse), so
// the numbers measure the engine loop, not per-run construction. A non-nil
// cache attaches a prefix-checkpoint cache: passing one word then measures
// the steady full-depth resume, and passing warmups+iters distinct siblings
// makes every timed run a fresh partial-hit resume.
//
// Warm-up runs precede the measurement so neither cold-start growth of the
// queue, arena and context arrays (that path has its own allocation guards
// in internal/ring) nor first-touch costs of the process — page faults on
// fresh heap spans, GC pacing against a not-yet-established live set —
// pollute the steady-state numbers. One warm-up is not enough for the latter
// on 2^20 rings: the very first large cell otherwise reads several times
// slower than an identical cell run second.
//
// Allocations are counted process-wide, so a stray background allocation
// could move an average by a fraction; like testing.AllocsPerRun, the count
// is whole allocations per run (integer division), so a record reads the
// same on every run of one build.
func timedRuns(rec core.Recognizer, words []lang.Word, engine ring.Engine, warmups, iters int, cache *core.PrefixCache) (nsPerOp, allocsPerOp float64, res *ring.Result, err error) {
	opts := core.RunOptions{Engine: engine, State: ring.NewRunState(), Ctx: defaultCtx, Prefix: cache, Reuse: core.NewNodeReuse()}
	for i := 0; i < warmups; i++ {
		if _, err = core.Run(rec, words[i%len(words)], opts); err != nil {
			return 0, 0, nil, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if res, err = core.Run(rec, words[(warmups+i)%len(words)], opts); err != nil {
			return 0, 0, nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = float64((after.Mallocs - before.Mallocs) / uint64(iters))
	return nsPerOp, allocsPerOp, res, nil
}

// scaleWarmups is the warm-up count of a timed cell of iters iterations.
func scaleWarmups(iters int) int { return min(2+iters/4, 8) }

// ExperimentE15 is the large-ring engine sweep: the count algorithm (one
// Θ(log n)-bit token, one circuit — the lightest Θ(n log n) workload in the
// catalog, so engine overhead dominates) timed at ring sizes up to 2^20 under
// the serial and the sharded engine, with a reused run state that warm-up
// runs size to the ring. The
// bits column cross-checks the engines against each other; the ns/op and
// allocs/op columns are the perf trajectory that BENCH_engine.json pins at
// the repo root.
func ExperimentE15(sizes []int, suite Suite) (*Table, error) {
	table := &Table{
		ID:    "E15",
		Title: "large-ring engine: time and allocation trajectory (count, reused pre-sized state)",
		PaperClaim: "engine scaffolding, not a paper claim: the Θ(n log n) count workload at n up to 2^20, " +
			"bit-identical across engines",
		Columns: []string{"n", "engine", "bits", "msgs", "bits/(n lg n)", "ns/op", "ns/op/n", "allocs/op"},
	}
	for _, n := range sizes {
		root := int(math.Round(math.Sqrt(float64(n))))
		if root*root != n {
			return nil, fmt.Errorf("bench: E15 size %d is not a perfect square", n)
		}
		rec := core.NewSquareCount()
		word, err := sweepWord(rec, n, MeasureOptions{WindowSet: true}.normalize())
		if err != nil {
			return nil, err
		}
		if len(word) != n {
			return nil, fmt.Errorf("bench: E15 wanted a member of length %d, generator produced %d", n, len(word))
		}
		iters := scaleIters(n, suite)
		wantBits := -1
		for _, engine := range scaleEngines() {
			nsPerOp, allocsPerOp, res, err := timedRuns(rec, []lang.Word{word}, engine, scaleWarmups(iters), iters, nil)
			if err != nil {
				return nil, fmt.Errorf("bench: E15 %s at n=%d: %w", engine.Name(), n, err)
			}
			if res.Verdict != ring.VerdictAccept {
				return nil, fmt.Errorf("bench: E15 %s at n=%d: rejected a perfect-square length", engine.Name(), n)
			}
			if wantBits < 0 {
				wantBits = res.Stats.Bits
			} else if res.Stats.Bits != wantBits {
				return nil, fmt.Errorf("bench: E15 at n=%d: %s counted %d bits, expected %d",
					n, engine.Name(), res.Stats.Bits, wantBits)
			}
			table.AddRow(
				fmtInt(n), engine.Name(),
				fmtInt(res.Stats.Bits), fmtInt(res.Stats.Messages),
				perNLogN(res.Stats.Bits, n),
				fmt.Sprintf("%.0f", nsPerOp),
				fmt.Sprintf("%.1f", nsPerOp/float64(n)),
				fmt.Sprintf("%.0f", allocsPerOp),
			)
			table.AddRecord(BenchRecord{
				Algorithm:   rec.Name(),
				Schedule:    engine.Name(),
				N:           n,
				Bits:        res.Stats.Bits,
				Messages:    res.Stats.Messages,
				NsPerOp:     nsPerOp,
				AllocsPerOp: allocsPerOp,
			})
		}
	}
	table.Notes = append(table.Notes,
		"timings average the post-warm-up steady state: the run state is reused from the warm-up runs, so allocs/op is the reuse floor, not cold-start growth",
		fmt.Sprintf("sharded engine sizing on this host: GOMAXPROCS=%d (below 2 effective workers it falls back to the serial loop, by design)", runtime.GOMAXPROCS(0)),
	)
	return table, nil
}
