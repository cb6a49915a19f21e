package core

import (
	"errors"
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// This file is the declarative token-pass framework. Every recognizer in the
// paper's upper-bound sections is the same machine: a single token circulates
// from the leader, each processor folds its letter into the token state, and
// after a fixed number of passes the leader reads the verdict off the final
// state. A TokenAlgo states exactly the parts that differ — the per-pass
// initial state, fold, wire codec, and the final verdict — and the framework
// owns everything the hand-written recognizers used to triplicate: node
// construction, leader/pass bookkeeping, encode/decode plumbing and the
// zero-allocation payload path (ring.Context scratch writers + reply
// buffers). A new language is a ~50-line declaration; see majority.go for the
// smallest complete example.

// TokenPass describes one circulation of the token over a state type S.
type TokenPass[S any] struct {
	// Begin derives the pass's initial token state at the leader, before the
	// leader's own letter is folded in. For the first pass prev is the zero
	// value of S; for later passes it is the previous pass's final state as
	// decoded at the leader (which is how, e.g., a counting pass hands n to a
	// comparison pass). ringSize is the ring size the framework knows at node
	// construction; only "known n" algorithms (Section 7 note 4) may consult
	// it — everything else must derive what it needs from prev. Nil means
	// "start from prev unchanged".
	Begin func(prev S, ringSize int) (S, error)
	// Fold folds one processor's letter into the token state. It runs at the
	// leader when the pass begins and at every follower as the token passes,
	// so after one circulation every letter has been folded exactly once.
	Fold func(s S, letter lang.Letter) (S, error)
	// Encode writes the state onto the wire. The writer is the processor's
	// scratch writer; the framework owns its lifecycle.
	Encode func(w *bits.Writer, s S)
	// Decode reads the state back. It must consume exactly what Encode wrote.
	Decode func(r *bits.Reader) (S, error)
}

// TokenAlgo is the declarative specification of a single-token recognizer.
type TokenAlgo[S any] struct {
	// AlgoName is the recognizer name reported by Recognizer.Name.
	AlgoName string
	// Language is the language the recognizer decides.
	Language lang.Language
	// Dir is the direction the token travels; the zero value means Forward.
	// A Backward token implies a bidirectional ring.
	Dir ring.Direction
	// CheckLetter validates each processor's letter at node construction.
	// Declare it only where the language's alphabet cannot express the
	// check cheaply — an O(1) index test for a wide alphabet, an automaton's
	// own alphabet. Nil checks the whole word once against the language's
	// alphabet with lang.Alphabet.ValidWord.
	CheckLetter func(lang.Letter) error
	// Passes is the token's itinerary, in order. Every pass visits all n
	// processors once, leader first.
	Passes []TokenPass[S]
	// Verdict inspects the final state of the last pass at the leader and
	// reports acceptance.
	Verdict func(final S) bool
}

// TokenRecognizer runs a TokenAlgo as a Recognizer. Construct with
// NewTokenRecognizer; the zero value is not usable.
type TokenRecognizer[S any] struct {
	spec TokenAlgo[S]
	// alphabet is the language's alphabet, which checkWord tests a word
	// against when the spec declares no CheckLetter.
	alphabet lang.Alphabet
}

// errInvalidTokenAlgo is wrapped by every NewTokenRecognizer validation error.
var errInvalidTokenAlgo = errors.New("core: invalid token algorithm")

// errLateToken is the cause of an AlgoError reporting a token delivered
// after the algorithm's final pass completed.
var errLateToken = errors.New("token arrived after the final pass")

// AlgoError wraps a runtime failure of a token recognizer — codec errors,
// fold errors, letter validation — with the algorithm that produced it, so
// callers classify the failing algorithm with errors.As instead of parsing
// the message. The underlying cause stays reachable through Unwrap.
type AlgoError struct {
	// Algo is the recognizer name (TokenAlgo.AlgoName).
	Algo string
	// Err is the underlying cause.
	Err error
}

// Error implements error with the "name: cause" form the recognizers have
// always reported.
func (e *AlgoError) Error() string { return e.Algo + ": " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *AlgoError) Unwrap() error { return e.Err }

// algoErr wraps err with the algorithm's name.
func algoErr(algo string, err error) error {
	return &AlgoError{Algo: algo, Err: err}
}

// NewTokenRecognizer validates a TokenAlgo and wraps it as a Recognizer.
func NewTokenRecognizer[S any](spec TokenAlgo[S]) (*TokenRecognizer[S], error) {
	switch {
	case spec.AlgoName == "":
		return nil, fmt.Errorf("%w: missing name", errInvalidTokenAlgo)
	case spec.Language == nil:
		return nil, fmt.Errorf("%w: %s has no language", errInvalidTokenAlgo, spec.AlgoName)
	case len(spec.Passes) == 0:
		return nil, fmt.Errorf("%w: %s declares no passes", errInvalidTokenAlgo, spec.AlgoName)
	case spec.Verdict == nil:
		return nil, fmt.Errorf("%w: %s has no verdict", errInvalidTokenAlgo, spec.AlgoName)
	}
	for i, p := range spec.Passes {
		if p.Fold == nil || p.Encode == nil || p.Decode == nil {
			return nil, fmt.Errorf("%w: %s pass %d is missing fold or codec", errInvalidTokenAlgo, spec.AlgoName, i)
		}
	}
	if spec.Dir == 0 {
		spec.Dir = ring.Forward
	}
	return &TokenRecognizer[S]{spec: spec, alphabet: spec.Language.Alphabet()}, nil
}

// mustTokenRecognizer is the constructor for the statically-declared
// recognizers in this package, whose specs are correct by construction.
func mustTokenRecognizer[S any](spec TokenAlgo[S]) *TokenRecognizer[S] {
	rec, err := NewTokenRecognizer(spec)
	if err != nil {
		panic(err)
	}
	return rec
}

// Name implements Recognizer.
func (t *TokenRecognizer[S]) Name() string { return t.spec.AlgoName }

// Language implements Recognizer.
func (t *TokenRecognizer[S]) Language() lang.Language { return t.spec.Language }

// Mode implements Recognizer: a Forward token needs only a unidirectional
// ring; a Backward token needs the bidirectional topology.
func (t *TokenRecognizer[S]) Mode() ring.Mode {
	if t.spec.Dir == ring.Backward {
		return ring.Bidirectional
	}
	return ring.Unidirectional
}

// Passes returns the number of token circulations the algorithm performs.
func (t *TokenRecognizer[S]) Passes() int { return len(t.spec.Passes) }

// checkWord validates every letter of word before a node is touched: with
// the spec's CheckLetter when it declares one, otherwise with one ValidWord
// over the whole word.
//
//ring:hotpath guard=TestNodeReuseStaysOnRebuildFloor
func (t *TokenRecognizer[S]) checkWord(word lang.Word) error {
	if check := t.spec.CheckLetter; check != nil {
		for _, letter := range word {
			if err := check(letter); err != nil {
				return algoErr(t.spec.AlgoName, err)
			}
		}
		return nil
	}
	if t.alphabet.ValidWord(word) == nil {
		return nil
	}
	for _, letter := range word {
		if !t.alphabet.Contains(letter) {
			return algoErr(t.spec.AlgoName, fmt.Errorf("letter %q outside the alphabet", letter))
		}
	}
	return nil
}

// NewNodes implements Recognizer.
func (t *TokenRecognizer[S]) NewNodes(word lang.Word) ([]ring.Node, error) {
	if err := t.checkWord(word); err != nil {
		return nil, err
	}
	nodes := make([]ring.Node, len(word))
	states := make([]tokenPassNode[S], len(word))
	for i, letter := range word {
		states[i] = tokenPassNode[S]{alg: t, letter: letter, ringSize: len(word)}
		nodes[i] = &states[i]
	}
	return nodes, nil
}

// RebuildNodes implements NodeRebuilder: it relabels a ring NewNodes built
// for an equal-length word in place, resetting every node to the state a
// fresh construction would give it. At large n this is what keeps the
// steady-state run cost in the engine loop instead of in allocating,
// zeroing and faulting a fresh ring per word (see core.NodeReuse). A word
// with a foreign letter leaves every node as it was.
//
//ring:hotpath guard=TestNodeReuseStaysOnRebuildFloor
func (t *TokenRecognizer[S]) RebuildNodes(word lang.Word, prev []ring.Node) ([]ring.Node, error) {
	if len(prev) != len(word) {
		return nil, algoErr(t.spec.AlgoName, fmt.Errorf("rebuild: %d nodes for %d letters", len(prev), len(word)))
	}
	if err := t.checkWord(word); err != nil {
		return nil, err
	}
	for i, letter := range word {
		node, ok := prev[i].(*tokenPassNode[S])
		if !ok || node.alg != t {
			return nil, algoErr(t.spec.AlgoName, fmt.Errorf("rebuild: node %d was not built by this recognizer", i))
		}
		node.letter = letter
		node.seen = 0
		node.reader = bits.Reader{}
	}
	return prev, nil
}

// tokenPassNode is the one per-processor implementation behind every token
// recognizer. Its behaviour is fully determined by the spec: the leader
// begins each pass (folding its own letter first), followers fold and relay,
// and the leader closes the last pass with the verdict.
type tokenPassNode[S any] struct {
	alg      *TokenRecognizer[S]
	letter   lang.Letter
	ringSize int
	// seen counts the tokens this processor has handled, which is exactly the
	// index of the pass the next incoming token belongs to (for the leader:
	// the pass that is completing).
	seen int
	// reader is the node's reusable payload decoder; pooling it here keeps
	// the receive path allocation-free.
	reader bits.Reader
}

// begin computes pass p's on-the-wire state at the leader: Begin, then the
// leader's own fold.
//
//ring:deterministic
//ring:hotpath guard=TestTokenRecognizerSteadyStateAllocs
func (n *tokenPassNode[S]) begin(p int, prev S) (S, error) {
	pass := &n.alg.spec.Passes[p]
	s := prev
	if pass.Begin != nil {
		var err error
		if s, err = pass.Begin(prev, n.ringSize); err != nil {
			return s, algoErr(n.alg.spec.AlgoName, fmt.Errorf("begin pass %d: %w", p, err))
		}
	}
	s, err := pass.Fold(s, n.letter)
	if err != nil {
		return s, algoErr(n.alg.spec.AlgoName, err)
	}
	return s, nil
}

// emit encodes s with pass p's codec onto the processor's scratch writer and
// returns the single resulting send. The payload aliases the scratch buffer —
// legal here because a token algorithm's processor has at most one message in
// flight (see ring.Context.Writer).
//
//ring:deterministic
//ring:hotpath guard=TestTokenRecognizerSteadyStateAllocs
func (n *tokenPassNode[S]) emit(ctx *ring.Context, p int, s S) []ring.Send {
	w := ctx.Writer()
	n.alg.spec.Passes[p].Encode(w, s)
	return ctx.Reply(n.alg.spec.Dir, w.BitString())
}

// Start implements ring.Node: the leader launches pass 0.
//
//ring:deterministic
//ring:hotpath guard=TestTokenRecognizerSteadyStateAllocs
func (n *tokenPassNode[S]) Start(ctx *ring.Context) ([]ring.Send, error) {
	if !ctx.IsLeader() {
		return nil, nil
	}
	var zero S
	s, err := n.begin(0, zero)
	if err != nil {
		return nil, err
	}
	return n.emit(ctx, 0, s), nil
}

// Receive implements ring.Node.
//
//ring:deterministic
//ring:hotpath guard=TestTokenRecognizerSteadyStateAllocs
func (n *tokenPassNode[S]) Receive(ctx *ring.Context, _ ring.Direction, payload bits.String) ([]ring.Send, error) {
	p := n.seen
	if p >= len(n.alg.spec.Passes) {
		return nil, algoErr(n.alg.spec.AlgoName, errLateToken)
	}
	n.seen++
	n.reader.Reset(payload)
	s, err := n.alg.spec.Passes[p].Decode(&n.reader)
	if err != nil {
		return nil, algoErr(n.alg.spec.AlgoName, err)
	}
	if ctx.IsLeader() {
		// Pass p has completed: every processor folded its letter exactly once.
		if p == len(n.alg.spec.Passes)-1 {
			if n.alg.spec.Verdict(s) {
				return nil, ctx.Accept()
			}
			return nil, ctx.Reject()
		}
		next, err := n.begin(p+1, s)
		if err != nil {
			return nil, err
		}
		return n.emit(ctx, p+1, next), nil
	}
	if s, err = n.alg.spec.Passes[p].Fold(s, n.letter); err != nil {
		return nil, algoErr(n.alg.spec.AlgoName, err)
	}
	return n.emit(ctx, p, s), nil
}

// ResumeState implements ring.PrefixResumable. A token-pass processor's only
// per-run mutable state is how many tokens it has handled — the token itself
// carries everything else and rides in the checkpoint's pending queue — so
// the whole framework is checkpointable through this one pair of methods
// rather than per-algorithm ports.
//
//ring:deterministic
func (n *tokenPassNode[S]) ResumeState() int64 { return int64(n.seen) }

// Resume implements ring.PrefixResumable.
//
//ring:hotpath guard=TestCheckpointResumeAllocRegressionGuard
func (n *tokenPassNode[S]) Resume(state int64) { n.seen = int(state) }
