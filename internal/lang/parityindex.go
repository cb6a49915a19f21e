package lang

import (
	"fmt"
	"math/rand"
)

// ParityIndex is the regular language of Section 7 note 5, used for the
// passes-versus-bits trade-off. The alphabet is Σ = {σ₀, …, σ_{2ᵏ−1}}; a word
// w belongs to the language iff the letter σ_{|w| mod (2ᵏ−1)} occurs an even
// number of times in w.
//
// It can be recognized in two passes with (2k+1)·n bits (pass 1 computes
// |w| mod (2ᵏ−1), pass 2 tracks the single relevant parity), but a one-pass
// algorithm must track the parity of every letter concurrently and needs
// (k + 2ᵏ − 1)·n bits.
type ParityIndex struct {
	k        int
	alphabet Alphabet
}

var _ Language = (*ParityIndex)(nil)

// NewParityIndex constructs the language for alphabet size 2ᵏ. k must be in
// [1, 16] to keep the alphabet manageable.
func NewParityIndex(k int) (*ParityIndex, error) {
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("lang: parity-index k must be in [1,16], got %d", k)
	}
	size := 1 << uint(k)
	letters := make([]Letter, size)
	for i := 0; i < size; i++ {
		letters[i] = parityLetter(i)
	}
	return &ParityIndex{k: k, alphabet: NewAlphabet(letters...)}, nil
}

// The letters are numbered from parityBase, so they stay 1:1 with indices
// regardless of k, and skip the UTF-16 surrogate block, whose code points no
// string can carry (Go encodes each as U+FFFD). Only k = 16 reaches the
// block: the alphabet of k ≤ 15 ends at U+A7FF.
const (
	parityBase     = 0x2800
	surrogateFirst = 0xD800
	surrogateCount = 0x800
)

// parityLetter returns σ_i: U+2800+i below the surrogates, and 0x800 further
// on from there.
func parityLetter(i int) Letter {
	r := parityBase + i
	if r >= surrogateFirst {
		r += surrogateCount
	}
	return rune(r)
}

// Name implements Language.
//
//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (l *ParityIndex) Name() string { return fmt.Sprintf("parity-index[k=%d]", l.k) }

// Alphabet implements Language.
func (l *ParityIndex) Alphabet() Alphabet { return l.alphabet }

// K returns the parameter k (alphabet size 2ᵏ).
func (l *ParityIndex) K() int { return l.k }

// Modulus returns 2ᵏ − 1, the modulus applied to |w|.
func (l *ParityIndex) Modulus() int { return 1<<uint(l.k) - 1 }

// LetterIndex maps a letter to its index σ_i → i, or -1 if foreign (a
// surrogate included).
func (l *ParityIndex) LetterIndex(letter Letter) int {
	r := int(letter)
	switch {
	case r >= surrogateFirst+surrogateCount:
		r -= surrogateCount
	case r >= surrogateFirst:
		return -1
	}
	idx := r - parityBase
	if idx < 0 || idx >= l.alphabet.Size() {
		return -1
	}
	return idx
}

// LetterAt returns σ_i.
func (l *ParityIndex) LetterAt(i int) Letter {
	return parityLetter(i)
}

// Contains implements Language.
func (l *ParityIndex) Contains(w Word) bool {
	if err := l.alphabet.ValidWord(w); err != nil {
		return false
	}
	target := len(w) % l.Modulus()
	count := 0
	for _, letter := range w {
		if l.LetterIndex(letter) == target {
			count++
		}
	}
	return count%2 == 0
}

// GenerateMember implements Language: generate a random word, then repair the
// parity of the target letter if needed by replacing one occurrence or one
// non-occurrence.
func (l *ParityIndex) GenerateMember(n int, rng *rand.Rand) (Word, bool) {
	if n < 0 {
		return nil, false
	}
	w := RandomWord(l.alphabet, n, rng)
	if l.Contains(w) {
		return w, true
	}
	return l.flipTargetParity(w, rng)
}

// GenerateNonMember implements Language.
func (l *ParityIndex) GenerateNonMember(n int, rng *rand.Rand) (Word, bool) {
	if n < 1 {
		return nil, false
	}
	w := RandomWord(l.alphabet, n, rng)
	if !l.Contains(w) {
		return w, true
	}
	out, ok := l.flipTargetParity(w, rng)
	if !ok {
		return nil, false
	}
	return out, true
}

// flipTargetParity toggles the occurrence parity of the target letter by
// editing a single position, preserving the word length (and therefore the
// target index).
func (l *ParityIndex) flipTargetParity(w Word, rng *rand.Rand) (Word, bool) {
	if len(w) == 0 {
		return nil, false
	}
	out := w.Clone()
	target := len(w) % l.Modulus()
	targetLetter := l.LetterAt(target)
	pos := rng.Intn(len(out))
	if out[pos] == targetLetter {
		// Replace one occurrence by a different letter (needs alphabet ≥ 2,
		// true for every k ≥ 1).
		other := (target + 1) % l.alphabet.Size()
		out[pos] = l.LetterAt(other)
	} else {
		out[pos] = targetLetter
	}
	return out, true
}
