package automata

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustCompileDFA(t *testing.T, expr string, extra ...rune) *DFA {
	t.Helper()
	d, err := CompileRegexDFA(expr, extra...)
	if err != nil {
		t.Fatalf("CompileRegexDFA(%q): %v", expr, err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("compiled DFA invalid: %v", err)
	}
	return d
}

func TestRegexBasics(t *testing.T) {
	cases := []struct {
		expr    string
		yes, no []string
	}{
		{"ab", []string{"ab"}, []string{"", "a", "b", "abab"}},
		{"a|b", []string{"a", "b"}, []string{"", "ab", "ba"}},
		{"(ab)*", []string{"", "ab", "abab", "ababab"}, []string{"a", "b", "aba", "ba"}},
		{"a*b*", []string{"", "a", "b", "aaabb"}, []string{"ba", "aba"}},
		{"(a|b)*abb", []string{"abb", "aabb", "babb", "abababb"}, []string{"", "ab", "abba"}},
		{"a+", []string{"a", "aa", "aaa"}, []string{"", "ab"}},
		{"a?b", []string{"b", "ab"}, []string{"", "a", "aab"}},
		{"((0|1)(0|1))*", []string{"", "01", "0011", "101010"}, []string{"0", "011"}},
	}
	for _, c := range cases {
		d := mustCompileDFA(t, c.expr)
		for _, w := range c.yes {
			if !d.Accepts([]rune(w)) {
				t.Errorf("%q should accept %q", c.expr, w)
			}
		}
		for _, w := range c.no {
			if d.Accepts([]rune(w)) {
				t.Errorf("%q should reject %q", c.expr, w)
			}
		}
	}
}

func TestRegexSyntaxErrors(t *testing.T) {
	for _, expr := range []string{"(", ")", "*a", "a(", "a)b", "\\"} {
		if _, err := CompileRegex(expr); err == nil {
			t.Errorf("expected syntax error for %q", expr)
		}
	}
}

func TestRegexEmptyNeedsAlphabet(t *testing.T) {
	if _, err := CompileRegex(""); err == nil {
		t.Error("empty expression without alphabet should fail")
	}
	nfa, err := CompileRegex("", 'a')
	if err != nil {
		t.Fatalf("empty expression with alphabet: %v", err)
	}
	if !nfa.Accepts(nil) {
		t.Error("empty expression should accept the empty word")
	}
	if nfa.Accepts([]rune("a")) {
		t.Error("empty expression should reject non-empty words")
	}
}

func TestRegexExtraAlphabetCompletesDFA(t *testing.T) {
	d := mustCompileDFA(t, "a*", 'b')
	if !d.HasSymbol('b') {
		t.Fatal("extra alphabet symbol missing from DFA")
	}
	if d.Accepts([]rune("ab")) {
		t.Error("a* must reject ab even with b in the alphabet")
	}
}

func TestNFADirectSimulationAgreesWithDFA(t *testing.T) {
	exprs := []string{"(a|b)*abb", "(ab|ba)*", "a(a|b)*b"}
	words := []string{"", "a", "b", "ab", "ba", "abb", "aabb", "abab", "abba", "bbaabb", "ababab"}
	for _, expr := range exprs {
		nfa, err := CompileRegex(expr)
		if err != nil {
			t.Fatal(err)
		}
		dfa := Determinize(nfa)
		for _, w := range words {
			if nfa.Accepts([]rune(w)) != dfa.Accepts([]rune(w)) {
				t.Errorf("NFA and DFA disagree on %q for %q", w, expr)
			}
		}
	}
}

func TestMinimizePreservesLanguageAndShrinks(t *testing.T) {
	nfa, err := CompileRegex("(a|b)*abb")
	if err != nil {
		t.Fatal(err)
	}
	big := Determinize(nfa)
	small := Minimize(big)
	if small.NumStates > big.NumStates {
		t.Errorf("minimized DFA has %d states, more than input %d", small.NumStates, big.NumStates)
	}
	if small.NumStates != 4 {
		t.Errorf("minimal DFA for (a|b)*abb should have 4 states, got %d", small.NumStates)
	}
	if !Equivalent(big, small) {
		t.Error("minimization changed the language")
	}
}

func TestMinimizeHandlesUniformAcceptance(t *testing.T) {
	// All words accepted.
	d := mustCompileDFA(t, "(a|b)*")
	m := Minimize(d)
	if m.NumStates != 1 {
		t.Errorf("(a|b)* should minimize to 1 state, got %d", m.NumStates)
	}
	// No words accepted: complement of everything.
	none := Complement(m)
	mn := Minimize(none)
	if mn.NumStates != 1 || !IsEmptyLanguage(mn) {
		t.Errorf("complement of Σ* should be the 1-state empty language")
	}
}

func TestEquivalentDistinguishes(t *testing.T) {
	a := mustCompileDFA(t, "(ab)*")
	b := mustCompileDFA(t, "(ab)*ab")
	if Equivalent(a, b) {
		t.Error("(ab)* and (ab)*ab are different languages")
	}
	c := mustCompileDFA(t, "(ab)*(ab)?")
	// (ab)*(ab)? == (ab)*
	if !Equivalent(a, c) {
		t.Error("(ab)* and (ab)*(ab)? are the same language")
	}
}

func TestBooleanOperations(t *testing.T) {
	evenOnes := NewParityDFA()
	div3, err := NewModCounterDFA(3)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Difference(evenOnes, div3)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"", "1", "11", "111", "111111", "101010", "1111", "010"}
	for _, w := range words {
		ones := countOnes([]rune(w))
		even, m3 := ones%2 == 0, ones%3 == 0
		if diff.Accepts([]rune(w)) != (even && !m3) {
			t.Errorf("difference wrong on %q", w)
		}
	}
	comp := Complement(evenOnes)
	if comp.Accepts([]rune("11")) || !comp.Accepts([]rune("1")) {
		t.Error("complement wrong")
	}
	if _, err := Difference(evenOnes, mustCompileDFA(t, "a*")); err == nil {
		t.Error("expected alphabet mismatch error")
	}
}

func TestQuickRegexAgainstStringsPackage(t *testing.T) {
	// (a|b)*abb : accept iff the word over {a,b} ends with "abb".
	d := mustCompileDFA(t, "(a|b)*abb")
	f := func(pattern []bool) bool {
		var sb strings.Builder
		for _, b := range pattern {
			if b {
				sb.WriteByte('a')
			} else {
				sb.WriteByte('b')
			}
		}
		w := sb.String()
		return d.Accepts([]rune(w)) == strings.HasSuffix(w, "abb")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizationEquivalence(t *testing.T) {
	exprs := []string{"(a|b)*abb", "(ab|ba)+", "a*b*a*", "((a|b)(a|b))*", "a(a|b)*b|b(a|b)*a"}
	for _, expr := range exprs {
		nfa, err := CompileRegex(expr)
		if err != nil {
			t.Fatal(err)
		}
		dfa := Determinize(nfa)
		min := Minimize(dfa)
		f := func(pattern []bool) bool {
			word := make([]rune, len(pattern))
			for i, b := range pattern {
				if b {
					word[i] = 'a'
				} else {
					word[i] = 'b'
				}
			}
			return dfa.Accepts(word) == min.Accepts(word)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%q: %v", expr, err)
		}
	}
}
