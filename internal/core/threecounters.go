package core

import (
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
)

// ThreeCounters recognizes {0ᵏ1ᵏ2ᵏ} (Section 7 note 2) in a single pass: the
// message carries a validity flag for the 0*1*2* shape, the index of the
// highest letter seen so far, and three δ-coded occurrence counters. Each of
// the n messages is Θ(log n) bits, so the total is O(n log n) — a
// context-sensitive, non-context-free language recognized at the non-regular
// lower bound.
type ThreeCounters struct {
	*TokenRecognizer[threeCountersState]
}

var _ Recognizer = (*ThreeCounters)(nil)

// threeCountersState is the token state of the three-counter pass.
type threeCountersState struct {
	valid  bool
	phase  uint64 // highest letter value seen so far (0, 1, or 2)
	counts [3]uint64
}

// NewThreeCounters builds the three-counter recognizer.
func NewThreeCounters() *ThreeCounters {
	return &ThreeCounters{TokenRecognizer: mustTokenRecognizer(TokenAlgo[threeCountersState]{
		AlgoName: "three-counters",
		Language: lang.NewAnBnCn(),
		Passes: []TokenPass[threeCountersState]{{
			Begin: func(threeCountersState, int) (threeCountersState, error) {
				return threeCountersState{valid: true}, nil
			},
			Fold: func(s threeCountersState, letter lang.Letter) (threeCountersState, error) {
				idx := uint64(letter - '0')
				s.counts[idx]++
				if idx < s.phase {
					s.valid = false
				}
				if idx > s.phase {
					s.phase = idx
				}
				return s, nil
			},
			Encode: func(w *bits.Writer, s threeCountersState) {
				w.WriteBool(s.valid)
				w.WriteUint(s.phase, 2)
				for _, c := range s.counts {
					w.WriteDeltaValue(c)
				}
			},
			Decode: func(r *bits.Reader) (threeCountersState, error) {
				var s threeCountersState
				var err error
				if s.valid, err = r.ReadBool(); err != nil {
					return s, fmt.Errorf("decode valid flag: %w", err)
				}
				if s.phase, err = r.ReadUint(2); err != nil {
					return s, fmt.Errorf("decode phase: %w", err)
				}
				for i := range s.counts {
					if s.counts[i], err = r.ReadDeltaValue(); err != nil {
						return s, fmt.Errorf("decode counter %d: %w", i, err)
					}
				}
				return s, nil
			},
		}},
		// Every processor, the leader included, has folded in its letter.
		Verdict: func(s threeCountersState) bool {
			return s.valid && s.counts[0] == s.counts[1] && s.counts[1] == s.counts[2]
		},
	})}
}
