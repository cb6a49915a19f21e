package core

import (
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
)

// CompareWcW recognizes the linear language {w c w : w ∈ {a,b}*} from
// Section 7 note 1. The single pass carries the queue of first-half letters
// still waiting to be matched: before the centre 'c' the queue grows by one
// letter per processor, after the 'c' each processor pops the front letter
// and compares it with its own. The message therefore peaks at |w| ≈ n/2
// letters, and the total is Θ(n²) bits — the paper's lower bound for this
// language, met with a ~4× smaller constant than the collect-all baseline.
type CompareWcW struct {
	*TokenRecognizer[wcwState]
}

var _ Recognizer = (*CompareWcW)(nil)

// wcwPhase is the phase field of the streaming comparison message.
type wcwPhase uint64

const (
	wcwBeforeCentre wcwPhase = 0
	wcwAfterCentre  wcwPhase = 1
	wcwFailed       wcwPhase = 2
)

// wcwState is the token state: the phase plus the queue of letters of the
// first half that have not yet been matched (front first).
type wcwState struct {
	phase wcwPhase
	queue []lang.Letter
}

// NewCompareWcW builds the streaming comparison recognizer for {wcw}.
func NewCompareWcW() *CompareWcW {
	return &CompareWcW{TokenRecognizer: mustTokenRecognizer(TokenAlgo[wcwState]{
		AlgoName: "compare-wcw",
		Language: lang.NewWcW(),
		Passes: []TokenPass[wcwState]{{
			Fold: func(s wcwState, letter lang.Letter) (wcwState, error) {
				switch s.phase {
				case wcwFailed:
					// Keep relaying the failure; drop the queue so failure
					// messages are cheap.
					s.queue = nil
				case wcwBeforeCentre:
					if letter == 'c' {
						s.phase = wcwAfterCentre
					} else {
						s.queue = append(s.queue, letter)
					}
				case wcwAfterCentre:
					if letter == 'c' || len(s.queue) == 0 || s.queue[0] != letter {
						s.phase = wcwFailed
						s.queue = nil
					} else {
						s.queue = s.queue[1:]
					}
				}
				return s, nil
			},
			Encode: func(w *bits.Writer, s wcwState) {
				w.WriteUint(uint64(s.phase), 2)
				w.WriteDeltaValue(uint64(len(s.queue)))
				for _, l := range s.queue {
					w.WriteBool(l == 'b')
				}
			},
			Decode: func(r *bits.Reader) (wcwState, error) {
				var s wcwState
				phase, err := r.ReadUint(2)
				if err != nil {
					return s, fmt.Errorf("decode phase: %w", err)
				}
				s.phase = wcwPhase(phase)
				count, err := r.ReadDeltaValue()
				if err != nil {
					return s, fmt.Errorf("decode queue length: %w", err)
				}
				s.queue = make([]lang.Letter, 0, count)
				for i := uint64(0); i < count; i++ {
					isB, err := r.ReadBool()
					if err != nil {
						return s, fmt.Errorf("decode queue letter %d: %w", i, err)
					}
					if isB {
						s.queue = append(s.queue, 'b')
					} else {
						s.queue = append(s.queue, 'a')
					}
				}
				return s, nil
			},
		}},
		// Accept iff the centre was seen, nothing is left to match and no
		// mismatch occurred.
		Verdict: func(s wcwState) bool {
			return s.phase == wcwAfterCentre && len(s.queue) == 0
		},
	})}
}
