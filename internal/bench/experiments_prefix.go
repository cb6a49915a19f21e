package bench

import (
	"fmt"
	"math/rand"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// PrefixSizes are the E16 ring sizes: the same span as the E15 engine sweep,
// so the cold rows here line up with the sequential rows there.
var PrefixSizes = []int{1 << 12, 1 << 16, 1 << 20}

const (
	// prefixSharedNum/Den set how much of the seed word the sibling corpus
	// shares: 7/8 lands exactly on the deepest capture boundary the prefix
	// cache plans, so every warm-shared run is a partial hit that resumes
	// from the 7n/8 checkpoint and recomputes only the last n/8 letters.
	prefixSharedNum = 7
	prefixSharedDen = 8
	// prefixCacheBudget bounds the checkpoint store per cell: room for the
	// seed word's boundary checkpoints at n=2^20 (siblings resume without
	// inserting anything — full-word captures ride cold runs only).
	prefixCacheBudget = 1 << 27
)

// prefixCorpus builds a random seed word of length n plus count distinct
// siblings that share exactly `shared` leading letters with it. The first
// tail letter is forced to differ from the seed's, so the shared prefix is
// exact rather than an accident of sampling; the rest of each tail is
// random, so the siblings are (overwhelmingly likely) distinct words and a
// warm run over them cannot degenerate into exact-hit replays.
func prefixCorpus(alphabet lang.Alphabet, n, shared, count int, rng *rand.Rand) (lang.Word, []lang.Word) {
	seed := lang.RandomWord(alphabet, n, rng)
	siblings := make([]lang.Word, count)
	for i := range siblings {
		w := make(lang.Word, n)
		copy(w, seed[:shared])
		copy(w[shared:], lang.RandomWord(alphabet, n-shared, rng))
		if len(alphabet) > 1 && w[shared] == seed[shared] {
			for _, l := range alphabet {
				if l != seed[shared] {
					w[shared] = l
					break
				}
			}
		}
		siblings[i] = w
	}
	return seed, siblings
}

// ExperimentE16 is the prefix-checkpoint reuse sweep: the majority algorithm
// (single pass, binary alphabet — the lightest catalog workload whose words
// can share prefixes without being equal) timed on the sequential engine in
// three regimes per ring size. Cold runs with no cache are the baseline;
// warm-shared runs resume distinct siblings of a seeded word from its 7n/8
// checkpoint; warm-steady runs replay the seeded word itself from its
// full-depth checkpoint. The sweep hard-fails unless warm results stay
// bit-identical to cold and the steady resume stays on the cold allocation
// floor — the perf claim is only meaningful if the answers don't change.
func ExperimentE16(sizes []int, suite Suite) (*Table, error) {
	table := &Table{
		ID:    "E16",
		Title: "prefix checkpoints: cold vs warm ns/word on shared-prefix corpora (majority, sequential)",
		PaperClaim: "engine scaffolding, not a paper claim: words sharing a pass-0 prefix resume from stored " +
			"checkpoints, bit-identical to cold runs",
		Columns: []string{"n", "variant", "bits", "msgs", "ns/op", "ns/op/n", "allocs/op", "speedup"},
	}
	rng := rand.New(rand.NewSource(0x9e16))
	for _, n := range sizes {
		rec := core.NewMajority()
		engine := ring.NewSequentialEngine()
		shared := n * prefixSharedNum / prefixSharedDen
		iters := scaleIters(n, suite)
		warmups := scaleWarmups(iters)
		// One sibling per run (warm-up and timed) plus a held-out probe for
		// the warm-vs-cold cross-check below.
		seedWord, siblings := prefixCorpus(rec.Language().Alphabet(), n, shared, warmups+iters+1, rng)

		coldNs, coldAllocs, coldRes, err := timedRuns(rec, []lang.Word{seedWord}, engine, warmups, iters, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: E16 cold at n=%d: %w", n, err)
		}

		// Warm-shared: seed the cache with one run of the seed word (which
		// captures the boundary checkpoints), then time distinct siblings —
		// every timed iteration is a fresh partial hit at the 7/8 boundary.
		sharedCache := core.NewPrefixCache(prefixCacheBudget)
		if _, err := core.Run(rec, seedWord, core.RunOptions{Engine: engine, Ctx: defaultCtx, Prefix: sharedCache}); err != nil {
			return nil, fmt.Errorf("bench: E16 seeding at n=%d: %w", n, err)
		}
		sharedNs, sharedAllocs, sharedRes, err := timedRuns(rec, siblings[:warmups+iters], engine, warmups, iters, sharedCache)
		if err != nil {
			return nil, fmt.Errorf("bench: E16 warm-shared at n=%d: %w", n, err)
		}
		if st := sharedCache.Stats(); st.Hits+st.PartialHits == 0 {
			return nil, fmt.Errorf("bench: E16 warm-shared at n=%d never hit the cache: %+v", n, st)
		}

		// Warm-steady: repeats of the seed word resume from the full-depth
		// checkpoint; this is the pure resume path the allocation guard in
		// internal/core pins, so its allocs/op must not exceed the cold floor.
		steadyCache := core.NewPrefixCache(prefixCacheBudget)
		steadyNs, steadyAllocs, steadyRes, err := timedRuns(rec, []lang.Word{seedWord}, engine, warmups, iters, steadyCache)
		if err != nil {
			return nil, fmt.Errorf("bench: E16 warm-steady at n=%d: %w", n, err)
		}

		// Bit-identity cross-checks: the steady replay must reproduce the
		// cold report exactly, and a held-out sibling must agree between its
		// warm (partial-hit resume) and cold runs.
		if err := samePrefixReport("warm-steady", n, coldRes, steadyRes); err != nil {
			return nil, err
		}
		probe := siblings[warmups+iters]
		warmProbe, err := core.Run(rec, probe, core.RunOptions{Engine: engine, Ctx: defaultCtx, Prefix: sharedCache})
		if err != nil {
			return nil, fmt.Errorf("bench: E16 warm probe at n=%d: %w", n, err)
		}
		coldProbe, err := core.Run(rec, probe, core.RunOptions{Engine: engine, Ctx: defaultCtx})
		if err != nil {
			return nil, fmt.Errorf("bench: E16 cold probe at n=%d: %w", n, err)
		}
		if err := samePrefixReport("probe", n, coldProbe, warmProbe); err != nil {
			return nil, err
		}
		for variant, allocs := range map[string]float64{"steady": steadyAllocs, "shared": sharedAllocs} {
			if allocs > coldAllocs {
				return nil, fmt.Errorf("bench: E16 at n=%d: %s resume allocates %.0f/op, above the cold floor %.0f/op",
					n, variant, allocs, coldAllocs)
			}
		}
		// The full suite must demonstrate the 2x the subsystem exists for;
		// the quick suite (shared CI runners) only insists warm beats cold.
		minSpeedup := 2.0
		if suite == SuiteQuick {
			minSpeedup = 1.0
		}
		if coldNs < sharedNs*minSpeedup {
			return nil, fmt.Errorf("bench: E16 at n=%d: warm-shared %.0f ns/op is not %.1fx under cold %.0f ns/op",
				n, sharedNs, minSpeedup, coldNs)
		}

		for _, cell := range []struct {
			variant string
			ns      float64
			allocs  float64
			res     *ring.Result
		}{
			{"cold", coldNs, coldAllocs, coldRes},
			{"warm-shared-7/8", sharedNs, sharedAllocs, sharedRes},
			{"warm-steady", steadyNs, steadyAllocs, steadyRes},
		} {
			table.AddRow(
				fmtInt(n), cell.variant,
				fmtInt(cell.res.Stats.Bits), fmtInt(cell.res.Stats.Messages),
				fmt.Sprintf("%.0f", cell.ns),
				fmt.Sprintf("%.2f", cell.ns/float64(n)),
				fmt.Sprintf("%.0f", cell.allocs),
				fmt.Sprintf("%.2fx", coldNs/cell.ns),
			)
			table.AddRecord(BenchRecord{
				Algorithm:   rec.Name(),
				Schedule:    engine.Name() + "/" + cell.variant,
				N:           n,
				Bits:        cell.res.Stats.Bits,
				Messages:    cell.res.Stats.Messages,
				NsPerOp:     cell.ns,
				AllocsPerOp: cell.allocs,
			})
		}
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("warm-shared runs distinct words sharing a %d/%d prefix with the cached seed word: each timed run is a fresh partial-hit resume that recomputes only the tail, on the cold allocation floor (full-word captures ride cold runs only)", prefixSharedNum, prefixSharedDen),
		"warm-steady replays the seed word from its full-depth checkpoint: the pure resume path",
		"bits/msgs on the warm-shared row are the final sibling's (counter-coded token lengths vary with tail content); identity with cold runs is cross-checked per cell on a held-out sibling",
	)
	return table, nil
}

// samePrefixReport hard-fails an E16 cell whose warm run diverged from its
// cold twin in any accounted dimension — a wrong answer served fast is not a
// speedup.
func samePrefixReport(label string, n int, cold, warm *ring.Result) error {
	if warm.Verdict != cold.Verdict ||
		warm.Stats.Bits != cold.Stats.Bits ||
		warm.Stats.Messages != cold.Stats.Messages ||
		warm.Stats.MaxMessageBits != cold.Stats.MaxMessageBits {
		return fmt.Errorf("bench: E16 %s at n=%d: warm run diverged from cold (verdict %v vs %v, bits %d vs %d, msgs %d vs %d, max %d vs %d)",
			label, n, warm.Verdict, cold.Verdict, warm.Stats.Bits, cold.Stats.Bits,
			warm.Stats.Messages, cold.Stats.Messages, warm.Stats.MaxMessageBits, cold.Stats.MaxMessageBits)
	}
	return nil
}
