package core

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// The scenario across the whole recognizer catalog: election in front of
// every algorithm, verdict judged against the rotated word (the ring as the
// winner reads it), election overhead strictly positive and reported.
func TestElectThenRecognizeCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, rec := range allRecognizers(t) {
		language := rec.Language()
		n := 4 + rng.Intn(12)
		word, _, err := lang.MemberOrSkip(language, n, 8, rng)
		if err != nil {
			if nonMember, ok := language.GenerateNonMember(n, rng); ok {
				word = nonMember
			} else {
				t.Fatalf("%s: no test word near n=%d", rec.Name(), n)
			}
		}
		ids := election.RandomIDs(len(word), rand.New(rand.NewSource(5)))
		res, err := ElectThenRecognize(election.HirschbergSinclair, rec, word, ids, RunOptions{})
		if err != nil {
			t.Fatalf("%s on %q: %v", rec.Name(), word.String(), err)
		}
		if res.Election.Protocol != "hirschberg-sinclair" {
			t.Errorf("%s: election protocol reported as %q", rec.Name(), res.Election.Protocol)
		}
		if res.Election.Bits <= 0 || res.Election.Messages <= 0 {
			t.Errorf("%s: election overhead %d bits/%d msgs; the leader is not free",
				rec.Name(), res.Election.Bits, res.Election.Messages)
		}
		w := res.Election.WinnerIndex
		if w < 0 || w >= len(word) {
			t.Fatalf("%s: winner index %d out of range", rec.Name(), w)
		}
		for i := range word {
			if res.Rotated[i] != word[(w+i)%len(word)] {
				t.Fatalf("%s: Rotated is not the rotation of %q by %d: %q", rec.Name(), word.String(), w, res.Rotated.String())
			}
		}
		want := ring.VerdictReject
		if language.Contains(res.Rotated) {
			want = ring.VerdictAccept
		}
		if res.Recognition.Verdict != want {
			t.Errorf("%s on rotated %q: decided %v, language says %v",
				rec.Name(), res.Rotated.String(), res.Recognition.Verdict, want)
		}
	}
}

// Under at-least-once delivery the scenario hardens both phases with the
// alternating-bit dedup layer instead of refusing: the verdict still matches
// the oracle, and the composition is deterministic per seed.
func TestElectThenRecognizeUnderFaultSchedules(t *testing.T) {
	rec := NewThreeCounters()
	word := lang.WordFromString("012012")
	for _, schedule := range []string{"lossy", "duplicating", "crash-restart"} {
		for seed := int64(1); seed <= 3; seed++ {
			run := func() *ScenarioResult {
				ids := election.RandomIDs(len(word), rand.New(rand.NewSource(seed)))
				res, err := ElectThenRecognize(election.ChangRoberts, rec, word, ids,
					RunOptions{Engine: mustEngine(t, schedule, seed)})
				if err != nil {
					t.Fatalf("%s seed %d: %v", schedule, seed, err)
				}
				return res
			}
			a, b := run(), run()
			want := ring.VerdictReject
			if rec.Language().Contains(a.Rotated) {
				want = ring.VerdictAccept
			}
			if a.Recognition.Verdict != want {
				t.Errorf("%s seed %d: decided %v on rotated %q, language says %v",
					schedule, seed, a.Recognition.Verdict, a.Rotated.String(), want)
			}
			if a.Election.WinnerIndex != b.Election.WinnerIndex ||
				a.Election.Bits != b.Election.Bits ||
				a.Recognition.Stats.Bits != b.Recognition.Stats.Bits {
				t.Errorf("%s seed %d: two runs disagree (winner %d/%d, election bits %d/%d, recognition bits %d/%d)",
					schedule, seed, a.Election.WinnerIndex, b.Election.WinnerIndex,
					a.Election.Bits, b.Election.Bits, a.Recognition.Stats.Bits, b.Recognition.Stats.Bits)
			}
		}
	}
}

func TestElectThenRecognizeValidation(t *testing.T) {
	rec := NewMajority()
	if _, err := ElectThenRecognize(election.ChangRoberts, rec, nil, nil, RunOptions{}); !errors.Is(err, ErrEmptyWord) {
		t.Errorf("empty word: got %v, want ErrEmptyWord", err)
	}
	word := lang.WordFromString("0110")
	if _, err := ElectThenRecognize(election.ChangRoberts, rec, word, []uint64{1, 2}, RunOptions{}); err == nil {
		t.Error("mismatched ids length must fail")
	}
	if _, err := ElectThenRecognize(election.ChangRoberts, rec, word, nil, RunOptions{}); err == nil {
		t.Error("nil ids must fail")
	}
	// Explicit ids pin the winner: descending ids put the maximum at index 0.
	res, err := ElectThenRecognize(election.ChangRoberts, rec, word, election.DescendingIDs(len(word)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Election.WinnerIndex != 0 {
		t.Errorf("descending ids elected index %d, want 0", res.Election.WinnerIndex)
	}
	if res.Rotated.String() != word.String() {
		t.Errorf("rotation by 0 changed the word: %q", res.Rotated.String())
	}
}
