package core

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// carries reports whether the run sent anything over the link from → to.
func carries(s *ring.Stats, from, to int) bool {
	for _, ls := range s.Links() {
		if ls.From == from && ls.To == to {
			return true
		}
	}
	return false
}

func TestCountBackwardCorrectness(t *testing.T) {
	rec := NewCountBackward(lang.NewPerfectSquareLength())
	checkAgainstLanguage(t, rec, []int{2, 3, 4, 9, 10, 16, 25, 50})
}

func TestCountBackwardUsesTheCutLink(t *testing.T) {
	rec := NewCountBackward(lang.NewPerfectSquareLength())
	word := lang.RandomWord(rec.Language().Alphabet(), 9, rand.New(rand.NewSource(1)))
	res := runOn(t, rec, word)
	n := len(word)
	// The plain backward counter's first hop is leader → p_n over the link
	// the line simulation will later cut.
	if !carries(res.Stats, ring.LeaderIndex, n-1) {
		t.Error("count-backward should use the leader→p_n link directly")
	}
}

func TestLineSimulationRequiresBidirectional(t *testing.T) {
	if _, err := NewLineSimulation(NewThreeCounters()); !errors.Is(err, ErrNotBidirectional) {
		t.Errorf("err = %v, want ErrNotBidirectional", err)
	}
}

func TestLineSimulationEquivalenceAndCutLink(t *testing.T) {
	inner := NewCountBackward(lang.NewPerfectSquareLength())
	sim, err := NewLineSimulation(inner)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 4, 9, 16, 25, 37, 100} {
		word := lang.RandomWord(inner.Language().Alphabet(), n, rng)
		direct := runOn(t, inner, word)
		simulated := runOn(t, sim, word)
		if direct.Verdict != simulated.Verdict {
			t.Errorf("n=%d: line simulation changed the verdict (%v vs %v)", n, direct.Verdict, simulated.Verdict)
		}
		// The defining property: no traffic on either direction of the
		// leader–p_n link. With n=2 the forward leader→p₂ link and the cut
		// backward link share the same (from, to) pair, so the per-link check
		// is only meaningful for n ≥ 3.
		if n >= 3 {
			if carries(simulated.Stats, ring.LeaderIndex, n-1) {
				t.Errorf("n=%d: line simulation used the cut link leader→p_n", n)
			}
			if carries(simulated.Stats, n-1, ring.LeaderIndex) {
				t.Errorf("n=%d: line simulation used the cut link p_n→leader", n)
			}
		}
	}
}

func TestLineSimulationOverheadIsAdditiveLinear(t *testing.T) {
	inner := NewCountBackward(lang.NewPerfectSquareLength())
	sim, err := NewLineSimulation(inner)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 64, 256} {
		word := lang.RandomWord(inner.Language().Alphabet(), n, rng)
		direct := runOn(t, inner, word)
		simulated := runOn(t, sim, word)
		// Overhead = marker bit per message + the relays of the single
		// rerouted first hop; both are O(n) on top of 2·BIT_A(n) at worst.
		overhead := simulated.Stats.Bits - direct.Stats.Bits
		bound := 3*n + 2*direct.Stats.Bits
		if overhead < 0 || simulated.Stats.Bits > direct.Stats.Bits+bound {
			t.Errorf("n=%d: simulated bits %d vs direct %d exceeds the additive bound %d",
				n, simulated.Stats.Bits, direct.Stats.Bits, bound)
		}
	}
}

func TestLineSimulationTooSmallRing(t *testing.T) {
	inner := NewCountBackward(lang.NewPerfectSquareLength())
	sim, err := NewLineSimulation(inner)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sim, lang.WordFromString("a"), RunOptions{}); err == nil {
		t.Error("expected an error for a 1-processor line simulation")
	}
}

func TestRecognizersOnShardedWorkers(t *testing.T) {
	// Every recognizer must produce the same verdict and the same bit count
	// with its processors racing on three sharded workers as on the
	// sequential engine (their executions are message-driven and
	// deterministic).
	rng := rand.New(rand.NewSource(11))
	recs := []Recognizer{
		NewThreeCounters(),
		NewCompareWcW(),
		NewSquareCount(),
		NewLgRecognizer(lang.NewLg(lang.GrowthN15)),
	}
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, NewRegularOnePass(regs[0]))
	for _, rec := range recs {
		for _, n := range []int{3, 9, 25} {
			w, _, err := lang.MemberOrSkip(rec.Language(), n, 3, rng)
			if err != nil {
				continue
			}
			seq, err := Run(rec, w, RunOptions{})
			if err != nil {
				t.Fatalf("%s sequential: %v", rec.Name(), err)
			}
			sh, err := Run(rec, w, RunOptions{Engine: ring.NewShardedEngineWorkers(3)})
			if err != nil {
				t.Fatalf("%s sharded: %v", rec.Name(), err)
			}
			if seq.Verdict != sh.Verdict || seq.Stats.Bits != sh.Stats.Bits {
				t.Errorf("%s n=%d: engines disagree (verdict %v/%v, bits %d/%d)",
					rec.Name(), len(w), seq.Verdict, sh.Verdict, seq.Stats.Bits, sh.Stats.Bits)
			}
		}
	}
}

func TestNewRecognizerByName(t *testing.T) {
	cases := []struct {
		algorithm string
		language  string
	}{
		{"regular-one-pass", "even-ones"},
		{"collect-all", "wcw"},
		{"count", ""},
		{"count-backward", ""},
		{"three-counters", ""},
		{"compare-wcw", ""},
		{"lg", "n^1.5"},
		{"lg-known-n", "L_g[n^2]"},
		{"parity-one-pass", "k=3"},
		{"parity-two-pass", "k=2"},
	}
	for _, c := range cases {
		rec, err := NewRecognizerByName(c.algorithm, c.language)
		if err != nil {
			t.Errorf("NewRecognizerByName(%q, %q): %v", c.algorithm, c.language, err)
			continue
		}
		if rec.Name() == "" || rec.Language() == nil {
			t.Errorf("recognizer %q incomplete", c.algorithm)
		}
	}
	if _, err := NewRecognizerByName("bogus", ""); err == nil {
		t.Error("expected error for unknown algorithm")
	}
	if _, err := NewRecognizerByName("regular-one-pass", "wcw"); err == nil {
		t.Error("expected error when wrapping a non-regular language")
	}
	if _, err := NewRecognizerByName("parity-one-pass", "oops"); err == nil {
		t.Error("expected error for malformed parity parameter")
	}
	if _, err := NewRecognizerByName("lg", "n^37"); err == nil {
		t.Error("expected error for unknown growth function")
	}
	if len(AlgorithmNames()) < 10 {
		t.Error("AlgorithmNames should list every algorithm")
	}
}
