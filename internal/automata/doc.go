// Package automata implements the finite-automata substrate used throughout
// the reproduction: deterministic and nondeterministic finite automata, a
// small regular-expression compiler (Thompson construction), the subset
// construction and Hopcroft minimization.
//
// The paper's Theorem 1 algorithm transmits the state of a finite automaton
// around the ring in ⌈log |Q|⌉ bits per message, so the DFA type here is the
// direct input to core.RegularOnePass, and minimization directly reduces the
// measured bit complexity of that algorithm.
package automata
