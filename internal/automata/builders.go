package automata

import "fmt"

// The builders in this file produce the concrete regular languages used by
// the experiments: they are small, well-understood DFAs whose state counts
// (and therefore whose ⌈log |Q|⌉ message widths in Theorem 1's algorithm)
// are easy to reason about.

// NewParityDFA returns a DFA over {0,1} accepting words with an even number
// of 1s. Two states.
func NewParityDFA() *DFA {
	d := NewDFA(2, []rune{'0', '1'})
	d.Start = 0
	d.SetAccepting(0)
	d.SetTransition(0, '0', 0)
	d.SetTransition(0, '1', 1)
	d.SetTransition(1, '0', 1)
	d.SetTransition(1, '1', 0)
	return d
}

// NewModCounterDFA returns a DFA over {0,1} accepting words in which the
// number of 1s is divisible by mod. It has `mod` states.
func NewModCounterDFA(mod int) (*DFA, error) {
	if mod < 1 {
		return nil, fmt.Errorf("%w: modulus must be positive, got %d", ErrInvalidDFA, mod)
	}
	d := NewDFA(mod, []rune{'0', '1'})
	d.Start = 0
	d.SetAccepting(0)
	for s := 0; s < mod; s++ {
		d.SetTransition(State(s), '0', State(s))
		d.SetTransition(State(s), '1', State((s+1)%mod))
	}
	return d, nil
}

// NewLengthModDFA returns a DFA over the given alphabet accepting words whose
// length is congruent to residue modulo mod.
func NewLengthModDFA(alphabet []rune, mod, residue int) (*DFA, error) {
	if mod < 1 || residue < 0 || residue >= mod {
		return nil, fmt.Errorf("%w: bad modulus/residue %d/%d", ErrInvalidDFA, mod, residue)
	}
	d := NewDFA(mod, alphabet)
	d.Start = 0
	d.SetAccepting(State(residue))
	for s := 0; s < mod; s++ {
		for _, sym := range d.Alphabet {
			d.SetTransition(State(s), sym, State((s+1)%mod))
		}
	}
	return d, nil
}

// NewContainsSubstringDFA returns a DFA over the given alphabet accepting
// words containing `pattern` as a (contiguous) substring. Built with the
// Knuth-Morris-Pratt failure function, it has len(pattern)+1 states.
func NewContainsSubstringDFA(alphabet []rune, pattern []rune) (*DFA, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("%w: empty pattern", ErrInvalidDFA)
	}
	for _, p := range pattern {
		found := false
		for _, a := range alphabet {
			if a == p {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: pattern symbol %q not in alphabet", ErrInvalidDFA, p)
		}
	}
	m := len(pattern)
	// failure[i] = length of the longest proper prefix of pattern[:i] that is
	// also a suffix.
	failure := make([]int, m+1)
	for i := 1; i < m; i++ {
		j := failure[i]
		for j > 0 && pattern[i] != pattern[j] {
			j = failure[j]
		}
		if pattern[i] == pattern[j] {
			j++
		}
		failure[i+1] = j
	}

	d := NewDFA(m+1, alphabet)
	d.Start = 0
	d.SetAccepting(State(m))
	step := func(state int, sym rune) int {
		if state == m {
			return m // absorbing accept state
		}
		j := state
		for j > 0 && pattern[j] != sym {
			j = failure[j]
		}
		if pattern[j] == sym {
			return j + 1
		}
		return 0
	}
	for s := 0; s <= m; s++ {
		for _, sym := range d.Alphabet {
			d.SetTransition(State(s), sym, State(step(s, sym)))
		}
	}
	return d, nil
}
