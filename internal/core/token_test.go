package core

import (
	"errors"
	"math/rand"
	"testing"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// TestNewTokenRecognizerValidation checks that malformed specs are rejected
// with errInvalidTokenAlgo before any node is built.
func TestNewTokenRecognizerValidation(t *testing.T) {
	valid := func() TokenAlgo[uint64] {
		return TokenAlgo[uint64]{
			AlgoName: "test-count",
			Language: lang.NewPerfectSquareLength(),
			Passes:   []TokenPass[uint64]{counterPass(CodingDelta, "decode counter")},
			Verdict:  func(uint64) bool { return true },
		}
	}
	if _, err := NewTokenRecognizer(valid()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TokenAlgo[uint64])
	}{
		{"no name", func(s *TokenAlgo[uint64]) { s.AlgoName = "" }},
		{"no language", func(s *TokenAlgo[uint64]) { s.Language = nil }},
		{"no passes", func(s *TokenAlgo[uint64]) { s.Passes = nil }},
		{"no verdict", func(s *TokenAlgo[uint64]) { s.Verdict = nil }},
		{"pass without fold", func(s *TokenAlgo[uint64]) { s.Passes[0].Fold = nil }},
		{"pass without encode", func(s *TokenAlgo[uint64]) { s.Passes[0].Encode = nil }},
		{"pass without decode", func(s *TokenAlgo[uint64]) { s.Passes[0].Decode = nil }},
	}
	for _, tc := range cases {
		spec := valid()
		tc.mutate(&spec)
		if _, err := NewTokenRecognizer(spec); !errors.Is(err, errInvalidTokenAlgo) {
			t.Errorf("%s: got %v, want errInvalidTokenAlgo", tc.name, err)
		}
	}
}

// TestTokenRecognizerCustomMultiPass builds a two-pass algorithm from scratch
// through the public spec — the "new language in a few lines" workflow the
// framework exists for — and checks verdicts, pass accounting and the exact
// bit total. The language: words of even length whose first letter reoccurs
// an even number of times; pass 1 counts n (δ-coded), pass 2 carries the
// leader's letter plus an occurrence parity bit.
func TestTokenRecognizerCustomMultiPass(t *testing.T) {
	type st struct {
		count  uint64
		target lang.Letter
		parity bool
	}
	language := lang.NewWcW() // only the {a,b,c} alphabet is borrowed
	rec, err := NewTokenRecognizer(TokenAlgo[st]{
		AlgoName: "even-length-even-first",
		Language: language,
		Passes: []TokenPass[st]{
			{
				Fold:   func(s st, _ lang.Letter) (st, error) { s.count++; return s, nil },
				Encode: func(w *bits.Writer, s st) { w.WriteDeltaValue(s.count) },
				Decode: func(r *bits.Reader) (st, error) {
					var s st
					var err error
					s.count, err = r.ReadDeltaValue()
					return s, err
				},
			},
			{
				Begin: func(prev st, _ int) (st, error) {
					return st{count: prev.count}, nil
				},
				Fold: func(s st, letter lang.Letter) (st, error) {
					if s.target == 0 {
						s.target = letter // the leader folds first: its letter is the target
					}
					if letter == s.target {
						s.parity = !s.parity
					}
					return s, nil
				},
				Encode: func(w *bits.Writer, s st) {
					w.WriteDeltaValue(s.count)
					w.WriteUint(uint64(s.target), 8)
					w.WriteBool(s.parity)
				},
				Decode: func(r *bits.Reader) (st, error) {
					var s st
					var err error
					if s.count, err = r.ReadDeltaValue(); err != nil {
						return s, err
					}
					target, err := r.ReadUint(8)
					if err != nil {
						return s, err
					}
					s.target = lang.Letter(target)
					s.parity, err = r.ReadBool()
					return s, err
				},
			},
		},
		Verdict: func(s st) bool { return s.count%2 == 0 && !s.parity },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.spec.Passes); got != 2 {
		t.Fatalf("%d passes, want 2", got)
	}
	for _, tc := range []struct {
		word string
		want ring.Verdict
	}{
		{"ab", ring.VerdictReject},   // 'a' occurs once
		{"aa", ring.VerdictAccept},   // even length, 'a' twice
		{"abab", ring.VerdictAccept}, // 'a' twice
		{"aba", ring.VerdictReject},  // odd length
		{"abba", ring.VerdictAccept},
	} {
		res, err := Run(rec, lang.WordFromString(tc.word), RunOptions{})
		if err != nil {
			t.Fatalf("%q: %v", tc.word, err)
		}
		if res.Verdict != tc.want {
			t.Errorf("%q: verdict %v, want %v", tc.word, res.Verdict, tc.want)
		}
		if res.Stats.Messages != 2*len(tc.word) {
			t.Errorf("%q: %d messages, want two passes = %d", tc.word, res.Stats.Messages, 2*len(tc.word))
		}
	}
}

// TestTokenRecognizerDecodeErrorsAreNamed checks that codec failures surface
// with the algorithm's name, matching the hand-written recognizers' style.
func TestTokenRecognizerDecodeErrorsAreNamed(t *testing.T) {
	rec := NewThreeCounters()
	nodes, err := rec.NewNodes(lang.WordFromString("012"))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver a truncated payload straight into a follower node.
	_, err = nodes[1].Receive(&ring.Context{}, ring.Backward, bits.Empty())
	var ae *AlgoError
	if !errors.As(err, &ae) || ae.Algo != "three-counters" {
		t.Fatalf("truncated payload error %v does not name the algorithm", err)
	}
	// Letter validation is also named.
	if _, err := rec.NewNodes(lang.WordFromString("01x")); !errors.As(err, &ae) ||
		ae.Algo != "three-counters" {
		t.Fatalf("letter validation error %v does not name the algorithm", err)
	}
}

// TestTokenRecognizerSteadyStateAllocs pins the zero-allocation payload path
// end to end through the framework: a counting token re-run inside one
// RunState must not allocate per message — only the per-run constants (the
// Result, the decoded-state plumbing) remain.
func TestTokenRecognizerSteadyStateAllocs(t *testing.T) {
	rec := NewSquareCount()
	word, ok := rec.Language().GenerateMember(256, rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("no member of length 256")
	}
	eng := ring.NewSequentialEngine()
	st := ring.NewRunState()
	cfg := ring.Config{RequireVerdict: true}
	oneRun := func() {
		// Nodes are single-run (they track which pass the token is on), but
		// the framework backs all n of them with one slice, so rebuilding
		// costs two allocations regardless of ring size.
		nodes, err := rec.NewNodes(word)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWith(st, cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != ring.VerdictAccept {
			t.Fatalf("verdict %v", res.Verdict)
		}
	}
	oneRun()
	allocs := testing.AllocsPerRun(10, oneRun)
	// n=256 deliveries; anything growing with n is a payload-path regression.
	const ceiling = 8
	t.Logf("steady-state allocs/run for count at n=256: %.0f (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("count recognizer allocates %.0f/run at n=256, ceiling %d — the payload path regressed", allocs, ceiling)
	}
}
