package automata

import "fmt"

// Complement returns a DFA accepting exactly the words rejected by d.
func Complement(d *DFA) *DFA {
	out := d.Clone()
	out.Accepting = make(map[State]bool, d.NumStates)
	for s := State(0); int(s) < d.NumStates; s++ {
		if !d.Accepting[s] {
			out.Accepting[s] = true
		}
	}
	return out
}

// Difference returns a DFA for L(a) \ L(b), by the product construction.
// Both inputs must share an alphabet.
func Difference(a, b *DFA) (*DFA, error) {
	if !sameAlphabet(a.Alphabet, b.Alphabet) {
		return nil, fmt.Errorf("%w: product of DFAs over different alphabets", ErrInvalidDFA)
	}
	out := NewDFA(a.NumStates*b.NumStates, a.Alphabet)
	id := func(x, y State) State { return State(int(x)*b.NumStates + int(y)) }
	out.Start = id(a.Start, b.Start)
	for x := State(0); int(x) < a.NumStates; x++ {
		for y := State(0); int(y) < b.NumStates; y++ {
			if a.Accepting[x] && !b.Accepting[y] {
				out.SetAccepting(id(x, y))
			}
			for _, sym := range a.Alphabet {
				ax, _ := a.Step(x, sym)
				by, _ := b.Step(y, sym)
				out.SetTransition(id(x, y), sym, id(ax, by))
			}
		}
	}
	return out, nil
}

// IsEmptyLanguage reports whether the DFA accepts no word at all.
func IsEmptyLanguage(d *DFA) bool {
	reach := d.Reachable()
	for s := range reach {
		if d.Accepting[s] {
			return false
		}
	}
	return true
}
