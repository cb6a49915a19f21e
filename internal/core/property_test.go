package core

// Cross-cutting property tests: every recognizer must agree with its
// language's membership predicate on random words, and its verdict and bit
// accounting must be identical under every engine (FIFO, sharded workers
// racing on real goroutines, adversarial random delivery order). These are
// the schedule-independence and correctness invariants the paper's model
// takes for granted.

import (
	"math/rand"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// allRecognizers returns one instance of every unidirectional recognizer plus
// the bidirectional ones, for table-driven property tests.
func allRecognizers(t *testing.T) []Recognizer {
	t.Helper()
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		t.Fatal(err)
	}
	parity, err := lang.NewParityIndex(3)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Recognizer{
		NewRegularOnePass(regs[0]),
		NewRegularOnePass(regs[3]),
		NewCollectAll(lang.NewWcW()),
		NewSquareCount(),
		NewCountBackward(lang.NewPerfectSquareLength()),
		NewThreeCounters(),
		NewMajority(),
		NewBalancedCounter(),
		NewCompareWcW(),
		NewLgRecognizer(lang.NewLg(lang.GrowthN15)),
		NewLgRecognizerKnownN(lang.NewLg(lang.GrowthN175)),
		NewParityOnePass(parity),
		NewParityTwoPass(parity),
	}
	return recs
}

func TestPropertyVerdictMatchesMembershipOnRandomWords(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, rec := range allRecognizers(t) {
		language := rec.Language()
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(48)
			word := lang.RandomWord(language.Alphabet(), n, rng)
			res, err := Run(rec, word, RunOptions{})
			if err != nil {
				t.Fatalf("%s on %q: %v", rec.Name(), word.String(), err)
			}
			want := ring.VerdictReject
			if language.Contains(word) {
				want = ring.VerdictAccept
			}
			if res.Verdict != want {
				t.Errorf("%s on %q: verdict %v, language says %v", rec.Name(), word.String(), res.Verdict, want)
			}
		}
	}
}

func TestPropertyScheduleIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	engines := []ring.Engine{
		ring.NewSequentialEngine(),
		ring.NewShardedEngineWorkers(2),
		mustEngine(t, "random", 1),
		mustEngine(t, "random", 99),
	}
	for _, rec := range allRecognizers(t) {
		language := rec.Language()
		n := 5 + rng.Intn(30)
		word, _, err := lang.MemberOrSkip(language, n, 8, rng)
		if err != nil {
			word = lang.RandomWord(language.Alphabet(), n, rng)
		}
		var firstBits int
		var firstVerdict ring.Verdict
		for i, engine := range engines {
			res, err := Run(rec, word, RunOptions{Engine: engine})
			if err != nil {
				t.Fatalf("%s on %s: %v", rec.Name(), engine.Name(), err)
			}
			if i == 0 {
				firstBits, firstVerdict = res.Stats.Bits, res.Verdict
				continue
			}
			if res.Stats.Bits != firstBits || res.Verdict != firstVerdict {
				t.Errorf("%s: engine %s disagrees (bits %d vs %d, verdict %v vs %v)",
					rec.Name(), engine.Name(), res.Stats.Bits, firstBits, res.Verdict, firstVerdict)
			}
		}
	}
}

func TestPropertyMessageCountIsPassMultipleOfN(t *testing.T) {
	// Every unidirectional recognizer in this repository is organized in
	// whole passes: the total message count must be an exact multiple of n.
	rng := rand.New(rand.NewSource(103))
	for _, rec := range allRecognizers(t) {
		if rec.Mode() != ring.Unidirectional {
			continue
		}
		language := rec.Language()
		for trial := 0; trial < 5; trial++ {
			n := 2 + rng.Intn(40)
			word, _, err := lang.MemberOrSkip(language, n, 8, rng)
			if err != nil {
				word = lang.RandomWord(language.Alphabet(), n, rng)
			}
			res, err := Run(rec, word, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Messages%len(word) != 0 {
				t.Errorf("%s on %q: %d messages is not a multiple of n=%d",
					rec.Name(), word.String(), res.Stats.Messages, len(word))
			}
		}
	}
}

func TestPropertyRegularRecognizersStayLinear(t *testing.T) {
	// For every standard regular language, bits/n must not grow with n
	// (Corollary to Theorem 1: the constant is exactly ⌈log|Q|⌉).
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(104))
	for _, reg := range regs {
		rec := NewRegularOnePass(reg)
		var ratios []float64
		for _, n := range []int{32, 128, 512} {
			word := lang.RandomWord(reg.Alphabet(), n, rng)
			res, err := Run(rec, word, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ratios = append(ratios, float64(res.Stats.Bits)/float64(n))
		}
		for i := 1; i < len(ratios); i++ {
			if ratios[i] != ratios[0] {
				t.Errorf("%s: bits/n changed from %f to %f", reg.Name(), ratios[0], ratios[i])
			}
		}
	}
}

func TestPropertyNonRegularBitsPerProcessorGrows(t *testing.T) {
	// The flip side of Theorem 4: for the non-regular recognizers bits/n must
	// grow with n (they cannot be O(n)).
	recs := []Recognizer{NewSquareCount(), NewThreeCounters(), NewBalancedCounter(), NewCompareWcW()}
	rng := rand.New(rand.NewSource(105))
	for _, rec := range recs {
		small, _, err := lang.MemberOrSkip(rec.Language(), 32, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		big, _, err := lang.MemberOrSkip(rec.Language(), 1024, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		resSmall, err := Run(rec, small, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resBig, err := Run(rec, big, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if resBig.Stats.BitsPerProcessor() <= resSmall.Stats.BitsPerProcessor() {
			t.Errorf("%s: bits/n did not grow (%f at n=%d vs %f at n=%d)",
				rec.Name(), resSmall.Stats.BitsPerProcessor(), len(small),
				resBig.Stats.BitsPerProcessor(), len(big))
		}
	}
}
