package automata

import "sort"

// Epsilon is the pseudo-symbol used for ε-transitions in NFAs.
const Epsilon rune = 0

// NFA is a nondeterministic finite automaton with ε-transitions.
type NFA struct {
	NumStates int
	Alphabet  []rune
	Start     State
	Accepting map[State]bool
	// Trans maps (state, symbol) to the set of successor states. Epsilon is a
	// valid symbol key for ε-moves.
	Trans map[TransKey][]State
}

// NewNFA allocates an empty NFA.
func NewNFA(numStates int, alphabet []rune) *NFA {
	sorted := make([]rune, len(alphabet))
	copy(sorted, alphabet)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &NFA{
		NumStates: numStates,
		Alphabet:  sorted,
		Accepting: make(map[State]bool),
		Trans:     make(map[TransKey][]State),
	}
}

// AddTransition records that `to` is reachable from `from` on `symbol`
// (Epsilon for ε-moves).
func (n *NFA) AddTransition(from State, symbol rune, to State) {
	k := TransKey{From: from, Symbol: symbol}
	n.Trans[k] = append(n.Trans[k], to)
}

// SetAccepting marks a state as accepting.
func (n *NFA) SetAccepting(s State) {
	n.Accepting[s] = true
}

// Successors returns the states reachable from `from` on `symbol` in one step
// (no ε-closure applied).
func (n *NFA) Successors(from State, symbol rune) []State {
	return n.Trans[TransKey{From: from, Symbol: symbol}]
}

// EpsilonClosure returns the ε-closure of the given state set as a sorted
// slice without duplicates.
func (n *NFA) EpsilonClosure(states []State) []State {
	seen := make(map[State]bool, len(states))
	stack := make([]State, 0, len(states))
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range n.Successors(s, Epsilon) {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	out := make([]State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Move returns the set of states reachable from any state in `states` by one
// `symbol` transition, before ε-closure.
func (n *NFA) Move(states []State, symbol rune) []State {
	seen := make(map[State]bool)
	for _, s := range states {
		for _, to := range n.Successors(s, symbol) {
			seen[to] = true
		}
	}
	out := make([]State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Accepts reports whether the NFA accepts the word, by direct subset
// simulation.
func (n *NFA) Accepts(word []rune) bool {
	current := n.EpsilonClosure([]State{n.Start})
	for _, sym := range word {
		current = n.EpsilonClosure(n.Move(current, sym))
		if len(current) == 0 {
			return false
		}
	}
	for _, s := range current {
		if n.Accepting[s] {
			return true
		}
	}
	return false
}
