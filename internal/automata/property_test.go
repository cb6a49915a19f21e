package automata

import (
	"math/rand"
	"testing"
)

// Property-based tests over randomly generated automata: minimization must
// preserve the language and be idempotent, complement and difference must
// satisfy their defining pointwise laws, and Equivalent must behave like an
// equivalence relation on the languages involved.

const propertyTrials = 40

func alphabetAB() []rune { return []rune{'a', 'b'} }

func TestPropertyMinimizePreservesRandomDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < propertyTrials; trial++ {
		d := RandomDFA(1+rng.Intn(12), alphabetAB(), rng)
		if err := d.Validate(); err != nil {
			t.Fatalf("RandomDFA produced an invalid automaton: %v", err)
		}
		m := Minimize(d)
		if err := m.Validate(); err != nil {
			t.Fatalf("Minimize produced an invalid automaton: %v", err)
		}
		if m.NumStates > d.NumStates {
			t.Errorf("minimization grew the automaton: %d -> %d", d.NumStates, m.NumStates)
		}
		if !Equivalent(d, m) {
			t.Error("minimization changed the language")
		}
		for i := 0; i < 30; i++ {
			w := RandomWordOver(alphabetAB(), rng.Intn(12), rng)
			if d.Accepts(w) != m.Accepts(w) {
				t.Errorf("trial %d: disagreement on %q", trial, string(w))
			}
		}
	}
}

func TestPropertyMinimizeIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < propertyTrials; trial++ {
		d := RandomDFA(1+rng.Intn(10), alphabetAB(), rng)
		once := Minimize(d)
		twice := Minimize(once)
		if once.NumStates != twice.NumStates {
			t.Errorf("minimization is not idempotent: %d vs %d states", once.NumStates, twice.NumStates)
		}
		if !Equivalent(once, twice) {
			t.Error("second minimization changed the language")
		}
	}
}

func TestPropertyComplementIsInvolutive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < propertyTrials; trial++ {
		d := RandomDFA(1+rng.Intn(10), alphabetAB(), rng)
		back := Complement(Complement(d))
		if !Equivalent(d, back) {
			t.Error("double complement changed the language")
		}
		comp := Complement(d)
		for i := 0; i < 20; i++ {
			w := RandomWordOver(alphabetAB(), rng.Intn(10), rng)
			if d.Accepts(w) == comp.Accepts(w) {
				t.Errorf("complement agrees with original on %q", string(w))
			}
		}
	}
}

func TestPropertyBooleanConstructionsPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < propertyTrials; trial++ {
		a := RandomDFA(1+rng.Intn(8), alphabetAB(), rng)
		b := RandomDFA(1+rng.Intn(8), alphabetAB(), rng)
		diff, err := Difference(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			w := RandomWordOver(alphabetAB(), rng.Intn(10), rng)
			inA, inB := a.Accepts(w), b.Accepts(w)
			if diff.Accepts(w) != (inA && !inB) {
				t.Errorf("difference law fails on %q", string(w))
			}
		}
	}
}

func TestPropertyEquivalentIsReflexiveAndDetectsDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < propertyTrials; trial++ {
		a := RandomDFA(1+rng.Intn(8), alphabetAB(), rng)
		if !Equivalent(a, a.Clone()) {
			t.Error("an automaton must be equivalent to its clone")
		}
		// A ∖ B empty and B ∖ A empty ⇔ equivalent.
		b := RandomDFA(1+rng.Intn(8), alphabetAB(), rng)
		diffAB, err := Difference(a, b)
		if err != nil {
			t.Fatal(err)
		}
		diffBA, err := Difference(b, a)
		if err != nil {
			t.Fatal(err)
		}
		bothEmpty := IsEmptyLanguage(diffAB) && IsEmptyLanguage(diffBA)
		if bothEmpty != Equivalent(a, b) {
			t.Error("Equivalent disagrees with the symmetric-difference emptiness check")
		}
	}
}

func TestPropertySubsetConstructionMatchesNFASimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	exprs := []string{"(a|b)*a(a|b)(a|b)", "(ab|b)*(a|ba)*", "a*b|b*a", "((a|b)(a|b)(a|b))*"}
	for _, expr := range exprs {
		nfa, err := CompileRegex(expr)
		if err != nil {
			t.Fatal(err)
		}
		dfa := Determinize(nfa)
		min := Minimize(dfa)
		for i := 0; i < 200; i++ {
			w := RandomWordOver(alphabetAB(), rng.Intn(14), rng)
			nfaAns := nfa.Accepts(w)
			if dfa.Accepts(w) != nfaAns || min.Accepts(w) != nfaAns {
				t.Errorf("%q: NFA/DFA/minimal disagree on %q", expr, string(w))
			}
		}
	}
}
