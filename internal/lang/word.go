package lang

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Letter is a single input symbol held by one ring processor.
type Letter = rune

// Word is the pattern on the ring: the concatenation of the processors'
// letters starting at the leader.
type Word []Letter

// WordFromString converts a Go string to a Word, one rune per letter.
func WordFromString(s string) Word {
	return Word([]rune(s))
}

// String renders the word as a Go string.
func (w Word) String() string {
	return string([]rune(w))
}

// Clone returns a copy of the word.
func (w Word) Clone() Word {
	out := make(Word, len(w))
	copy(out, w)
	return out
}

// Alphabet is a finite set of letters, sorted ascending without repeats.
// Build one with NewAlphabet: Contains, Index and ValidWord search a wide
// alphabet by bisection, which relies on that order.
type Alphabet []Letter

// NewAlphabet builds a canonical (sorted, deduplicated) alphabet.
func NewAlphabet(letters ...Letter) Alphabet {
	seen := make(map[Letter]bool, len(letters))
	out := make(Alphabet, 0, len(letters))
	for _, l := range letters {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether the alphabet includes the letter.
func (a Alphabet) Contains(l Letter) bool {
	_, ok := slices.BinarySearch(a, l)
	return ok
}

// Index returns the position of the letter in the alphabet, or -1.
func (a Alphabet) Index(l Letter) int {
	if i, ok := slices.BinarySearch(a, l); ok {
		return i
	}
	return -1
}

// Size returns the number of letters in the alphabet.
func (a Alphabet) Size() int {
	return len(a)
}

// ErrInvalidWord is wrapped by every error that reports a word no ring can
// hold in the language: a letter outside the alphabet (ValidWord) or no
// letter at all (core.ErrEmptyWord). It is the caller's mistake, never the
// algorithm's.
var ErrInvalidWord = errors.New("lang: invalid word")

// maxListedLetters is the largest alphabet an invalid-letter error quotes in
// full; a larger one is named by its size. It covers every byte alphabet,
// and keeps the message under a few KiB for any alphabet.
const maxListedLetters = 256

// ValidWord checks that every letter of the word belongs to the alphabet. A
// byte alphabet — every letter in [0, 256), which is every catalog alphabet
// but parity-index's — is tested against a 256-bit set on the stack, a few
// instructions per letter with no branch that depends on the letter. A
// wider alphabet is searched by bisection, O(log |a|) per letter. A valid
// word allocates nothing.
//
// The error wraps ErrInvalidWord and names the first foreign letter and its
// position. It quotes the alphabet when it has at most 256 letters and
// otherwise gives its size, so its length is bounded whatever the alphabet.
func (a Alphabet) ValidWord(w Word) error {
	set, ok := a.byteSet()
	if !ok {
		for i, l := range w {
			if !a.Contains(l) {
				return &foreignLetterError{letter: l, pos: i, alphabet: a}
			}
		}
		return nil
	}
	var miss uint64
	for _, l := range w {
		miss |= set.miss(l)
	}
	if miss == 0 {
		return nil
	}
	for i, l := range w {
		if set.miss(l) != 0 {
			return &foreignLetterError{letter: l, pos: i, alphabet: a}
		}
	}
	return nil
}

// byteSet is a set of letters in [0, 256), one bit per letter.
type byteSet [4]uint64

// byteSet returns the alphabet as a byteSet, or false when it holds a letter
// outside [0, 256).
func (a Alphabet) byteSet() (byteSet, bool) {
	var set byteSet
	for _, l := range a {
		if uint32(l) >= 256 {
			return byteSet{}, false
		}
		set[l>>6] |= 1 << (l & 63)
	}
	return set, true
}

// miss is zero exactly when l is in the set. Letters outside [0, 256) —
// negative ones included, which wrap to large unsigned values — set bits
// above the low byte, so masking to a byte cannot alias them onto a member.
func (s *byteSet) miss(l Letter) uint64 {
	u := uint32(l)
	return uint64(u>>8) | (s[u>>6&3]>>(u&63)&1 ^ 1)
}

// foreignLetterError is ValidWord's error: the first letter of a word that
// is not in the alphabet, and where it stands.
type foreignLetterError struct {
	letter   Letter
	pos      int
	alphabet Alphabet
}

func (e *foreignLetterError) Error() string {
	if len(e.alphabet) <= maxListedLetters {
		return fmt.Sprintf("lang: letter %q at position %d not in alphabet %q", e.letter, e.pos, string(e.alphabet))
	}
	return fmt.Sprintf("lang: letter %q at position %d not in alphabet of %d letters", e.letter, e.pos, len(e.alphabet))
}

func (e *foreignLetterError) Unwrap() error { return ErrInvalidWord }
