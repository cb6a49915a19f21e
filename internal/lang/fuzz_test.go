package lang

import (
	"errors"
	"strings"
	"testing"
)

// fuzzLetter decodes one letter from two fuzzed bytes. The kinds cover byte
// letters, runes at and above 256 whose low byte is a byte letter ('0'+256
// aliases '0' under a byte mask), negative runes, and a wide block like
// parity-index's.
func fuzzLetter(kind, v byte) Letter {
	switch kind % 4 {
	case 0:
		return Letter(v)
	case 1:
		return Letter(v) + 256
	case 2:
		return -Letter(v) - 1
	default:
		return 0x2800 + Letter(v)
	}
}

// validWordReference is ValidWord written from its definition: the first
// letter not equal to any letter of the alphabet, and its position.
func validWordReference(a Alphabet, w Word) (Letter, int, bool) {
	for i, l := range w {
		found := false
		for _, x := range a {
			if x == l {
				found = true
			}
		}
		if !found {
			return l, i, false
		}
	}
	return 0, 0, true
}

// FuzzValidWord checks ValidWord, on byte and wide alphabets alike, against
// validWordReference. Alphabets take 0–8 letters from pairs of rawAlpha and
// go through NewAlphabet. A word letter is either an alphabet letter (so
// valid words are common) or a decoded one.
func FuzzValidWord(f *testing.F) {
	f.Add([]byte{0, '0', 0, '1'}, []byte{0, 0, 0, 1, 1, '0', 0, 0})
	f.Add([]byte{0, 'a', 0, 'b', 0, 'c'}, []byte{0, 2, 0, 1, 0, 0})
	f.Add([]byte{0, '0', 1, '1', 3, 5}, []byte{0, 0, 0, 1, 0, 2, 1, '1', 0, 0})
	f.Add([]byte{2, 0, 0, 255}, []byte{0, 0, 1, 255, 0, 1})
	f.Add([]byte{}, []byte{1, 'x'})
	f.Add([]byte{0, '0'}, []byte{})
	// '0'+256 and -208 both have '0' as their low byte.
	f.Add([]byte{0, '0', 0, '1'}, []byte{0, 0, 3, '0'})
	f.Add([]byte{0, '0'}, []byte{0, 0, 5, 0xcf})
	f.Fuzz(func(t *testing.T, rawAlpha, rawWord []byte) {
		var letters []Letter
		for i := 0; i+1 < len(rawAlpha) && len(letters) < 8; i += 2 {
			letters = append(letters, fuzzLetter(rawAlpha[i], rawAlpha[i+1]))
		}
		a := NewAlphabet(letters...)
		var w Word
		for i := 0; i+1 < len(rawWord); i += 2 {
			if rawWord[i]%2 == 0 && len(a) > 0 {
				w = append(w, a[int(rawWord[i+1])%len(a)])
			} else {
				w = append(w, fuzzLetter(rawWord[i]/2, rawWord[i+1]))
			}
		}
		err := a.ValidWord(w)
		letter, pos, ok := validWordReference(a, w)
		if ok {
			if err != nil {
				t.Fatalf("ValidWord(%q over %q) = %v, want nil", []rune(w), []rune(a), err)
			}
			return
		}
		var fe *foreignLetterError
		if !errors.As(err, &fe) {
			t.Fatalf("ValidWord(%q over %q) = %v, want the foreign letter %q at %d", []rune(w), []rune(a), err, letter, pos)
		}
		if fe.letter != letter || fe.pos != pos {
			t.Fatalf("ValidWord(%q over %q) names %q at %d, want %q at %d", []rune(w), []rune(a), fe.letter, fe.pos, letter, pos)
		}
		if !errors.Is(err, ErrInvalidWord) {
			t.Fatalf("ValidWord error %v does not wrap ErrInvalidWord", err)
		}
	})
}

// TestValidWordError pins the error text: today's listing for a short
// alphabet, the alphabet's size for a wide one, and ErrInvalidWord under
// both.
func TestValidWordError(t *testing.T) {
	short := NewAlphabet('a', 'b', 'c')
	err := short.ValidWord(WordFromString("abz"))
	//ringvet:ignore errsentinel -- format pin: the message text is what this test fixes; the errors.Is check below classifies the error
	if want := `lang: letter 'z' at position 2 not in alphabet "abc"`; err == nil || err.Error() != want {
		t.Errorf("short alphabet: %v, want %s", err, want)
	}
	if !errors.Is(err, ErrInvalidWord) {
		t.Errorf("short alphabet: %v does not wrap ErrInvalidWord", err)
	}

	wideLang, err := NewParityIndex(16)
	if err != nil {
		t.Fatal(err)
	}
	wide := wideLang.Alphabet()
	w := Word{wide[7], wide[65535], 'x'}
	err = wide.ValidWord(w)
	//ringvet:ignore errsentinel -- format pin: the message text is what this test fixes; the errors.Is check below classifies the error
	if want := `lang: letter 'x' at position 2 not in alphabet of 65536 letters`; err == nil || err.Error() != want {
		t.Errorf("wide alphabet: %v, want %s", err, want)
	}
	if !errors.Is(err, ErrInvalidWord) {
		t.Errorf("wide alphabet: %v does not wrap ErrInvalidWord", err)
	}

	// The longest quoted alphabet: 256 wide letters stay listed, and the
	// message stays a few KiB.
	listed := make([]Letter, 256)
	for i := range listed {
		listed[i] = 0x10FF00 + Letter(i)
	}
	err = NewAlphabet(listed...).ValidWord(Word{'x'})
	if err == nil {
		t.Fatal("256-letter alphabet: a foreign letter passed")
	}
	if msg := err.Error(); !strings.Contains(msg, `alphabet "\U0010ff00`) || len(msg) > 4<<10 {
		t.Errorf("256-letter alphabet: %d-byte error %.80q…", len(msg), msg)
	}
}

// TestValidWordAllocatesNothing pins the allocation-free check on a valid
// word, on the byte set and on the bisection path.
func TestValidWordAllocatesNothing(t *testing.T) {
	byteAlpha := NewAlphabet('0', '1', '2')
	byteWord := WordFromString("0011220120")
	wideLang, err := NewParityIndex(4)
	if err != nil {
		t.Fatal(err)
	}
	wide := wideLang.Alphabet()
	wideWord := Word{wide[0], wide[15], wide[3], wide[3]}
	for _, c := range []struct {
		name string
		a    Alphabet
		w    Word
	}{{"byte", byteAlpha, byteWord}, {"wide", wide, wideWord}} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.a.ValidWord(c.w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s alphabet: ValidWord allocates %.1f per valid word, want 0", c.name, allocs)
		}
	}
}
