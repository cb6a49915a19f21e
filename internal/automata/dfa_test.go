package automata

import (
	"testing"
	"testing/quick"
)

func countOnes(w []rune) int {
	n := 0
	for _, r := range w {
		if r == '1' {
			n++
		}
	}
	return n
}

func TestParityDFA(t *testing.T) {
	d := NewParityDFA()
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := []struct {
		in   string
		want bool
	}{
		{"", true}, {"0", true}, {"1", false}, {"11", true},
		{"101", true}, {"111", false}, {"0000", true}, {"010101", false},
	}
	for _, c := range cases {
		if got := d.Accepts([]rune(c.in)); got != c.want {
			t.Errorf("parity(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestModCounterDFA(t *testing.T) {
	d, err := NewModCounterDFA(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	words := []string{"", "1", "11", "111", "0101", "110110", "111111"}
	for _, w := range words {
		want := countOnes([]rune(w))%3 == 0
		if got := d.Accepts([]rune(w)); got != want {
			t.Errorf("mod3(%q) = %v, want %v", w, got, want)
		}
	}
	if _, err := NewModCounterDFA(0); err == nil {
		t.Error("expected error for modulus 0")
	}
}

func TestLengthModDFA(t *testing.T) {
	d, err := NewLengthModDFA([]rune{'a', 'b'}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"", "a", "ab", "aba", "abab", "ababab"} {
		want := len(w)%4 == 2
		if got := d.Accepts([]rune(w)); got != want {
			t.Errorf("lenmod(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestContainsSubstringDFA(t *testing.T) {
	d, err := NewContainsSubstringDFA([]rune{'a', 'b'}, []rune("abab"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := map[string]bool{
		"":        false,
		"abab":    true,
		"aabab":   true,
		"ababab":  true,
		"abba":    false,
		"aabbab":  false,
		"bababab": true,
		"abaabab": true,
	}
	for w, want := range cases {
		if got := d.Accepts([]rune(w)); got != want {
			t.Errorf("contains-abab(%q) = %v, want %v", w, got, want)
		}
	}
	if _, err := NewContainsSubstringDFA([]rune{'a'}, []rune("ab")); err == nil {
		t.Error("expected error for pattern outside alphabet")
	}
}

func TestDFAValidateCatchesMissingTransitions(t *testing.T) {
	d := NewDFA(2, []rune{'a'})
	d.Start = 0
	d.SetTransition(0, 'a', 1)
	// transition from state 1 missing
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for partial transition function")
	}
	d.SetTransition(1, 'a', 5)
	if err := d.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-range target")
	}
}

func TestDFARejectsForeignSymbols(t *testing.T) {
	d := NewParityDFA()
	if d.Accepts([]rune("01x")) {
		t.Fatal("words with foreign symbols must be rejected")
	}
}

func TestDFACloneIsDeep(t *testing.T) {
	d := NewParityDFA()
	c := d.Clone()
	c.SetTransition(0, '1', 0)
	c.Accepting[1] = true
	if got, _ := d.Step(0, '1'); got != 1 {
		t.Error("mutating the clone changed the original's transitions")
	}
	if d.Accepting[1] {
		t.Error("mutating the clone changed the original's accepting set")
	}
}

func TestReachable(t *testing.T) {
	d := NewDFA(3, []rune{'a'})
	d.Start = 0
	d.SetTransition(0, 'a', 0)
	d.SetTransition(1, 'a', 2)
	d.SetTransition(2, 'a', 1)
	reach := d.Reachable()
	if !reach[0] || reach[1] || reach[2] {
		t.Fatalf("Reachable = %v, want only state 0", reach)
	}
}

func TestQuickParityMatchesReference(t *testing.T) {
	d := NewParityDFA()
	f := func(w []bool) bool {
		word := make([]rune, len(w))
		ones := 0
		for i, b := range w {
			if b {
				word[i] = '1'
				ones++
			} else {
				word[i] = '0'
			}
		}
		return d.Accepts(word) == (ones%2 == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
