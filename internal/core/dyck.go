package core

import (
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
)

// BalancedCounter recognizes the Dyck language of balanced brackets with a
// single pass carrying the current nesting depth (δ-coded) plus a failure
// flag. Like the three-counter algorithm of Section 7 note 2 it shows a
// classic context-free language sitting at the Θ(n log n) floor of the
// non-regular class.
type BalancedCounter struct {
	*TokenRecognizer[dyckState]
}

var _ Recognizer = (*BalancedCounter)(nil)

// dyckState is the token state: the current nesting depth and whether the
// depth ever went negative.
type dyckState struct {
	failed bool
	depth  uint64
}

// NewBalancedCounter builds the depth-counter recognizer for the Dyck
// language.
func NewBalancedCounter() *BalancedCounter {
	return &BalancedCounter{TokenRecognizer: mustTokenRecognizer(TokenAlgo[dyckState]{
		AlgoName: "balanced-counter",
		Language: lang.NewDyck(),
		Passes: []TokenPass[dyckState]{{
			Fold: func(s dyckState, letter lang.Letter) (dyckState, error) {
				switch {
				case s.failed:
				case letter == '(':
					s.depth++
				case s.depth == 0:
					s.failed = true
				default:
					s.depth--
				}
				return s, nil
			},
			Encode: func(w *bits.Writer, s dyckState) {
				w.WriteBool(s.failed)
				w.WriteDeltaValue(s.depth)
			},
			Decode: func(r *bits.Reader) (dyckState, error) {
				var s dyckState
				var err error
				if s.failed, err = r.ReadBool(); err != nil {
					return s, fmt.Errorf("decode flag: %w", err)
				}
				if s.depth, err = r.ReadDeltaValue(); err != nil {
					return s, fmt.Errorf("decode depth: %w", err)
				}
				return s, nil
			},
		}},
		Verdict: func(s dyckState) bool { return !s.failed && s.depth == 0 },
	})}
}
