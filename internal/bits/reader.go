package bits

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrTruncated is returned when a Reader runs out of bits mid-field.
var ErrTruncated = errors.New("bits: truncated payload")

// Reader consumes a bit string field by field, mirroring Writer.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader positioned at the start of s.
func NewReader(s String) *Reader {
	return &Reader{s: s}
}

// Reset repositions the reader at the start of s, allowing one Reader value
// to decode many payloads without a per-message allocation.
func (r *Reader) Reset(s String) {
	r.s = s
	r.pos = 0
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int {
	return r.s.n - r.pos
}

// AtEnd reports whether every bit has been consumed.
func (r *Reader) AtEnd() bool {
	return r.Remaining() == 0
}

// window returns the unread bits as one MSB-aligned word: its first
// min(64, Remaining()) bits are the string's next bits, and every bit after
// them is zero. It loads at most nine bytes and none at or past len(data).
func (r *Reader) window() uint64 {
	data := r.s.data[r.pos>>3:]
	off := uint(r.pos) & 7
	w := load64(data) << off
	if off > 0 && len(data) > 8 {
		w |= uint64(data[8]) >> (8 - off)
	}
	if rem := r.s.n - r.pos; rem < 64 {
		w &^= ^uint64(0) >> uint(rem)
	}
	return w
}

// ReadBool consumes a single bit.
//
//ring:hotpath guard=TestCodecHotPathAllocs
func (r *Reader) ReadBool() (bool, error) {
	if r.pos >= r.s.n {
		return false, fmt.Errorf("%w: reading bool at bit %d of %d", ErrTruncated, r.pos, r.s.n)
	}
	b := r.s.data[r.pos>>3]>>(7-uint(r.pos)&7)&1 == 1
	r.pos++
	return b, nil
}

// ReadUint consumes `width` bits and returns them as an unsigned integer
// (most significant bit first). Widths above 64 are clamped to 64. Every
// message decode funnels through here, so it is one window load and a
// shift.
//
//ring:hotpath guard=TestCodecHotPathAllocs
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width <= 0 {
		return 0, nil
	}
	if width > 64 {
		width = 64
	}
	if width > r.s.n-r.pos {
		return 0, fmt.Errorf("read uint width %d: %w: at bit %d of %d", width, ErrTruncated, r.pos, r.s.n)
	}
	v := r.window() >> (64 - uint(width))
	r.pos += width
	return v, nil
}

// ReadString consumes `width` bits and returns them as a bit string.
func (r *Reader) ReadString(width int) (String, error) {
	if width > r.s.n-r.pos {
		return String{}, fmt.Errorf("read string width %d: %w: at bit %d of %d", width, ErrTruncated, r.pos, r.s.n)
	}
	var w Writer
	for ; width > 0; width -= 64 {
		k := min(width, 64)
		v, _ := r.ReadUint(k) // cannot fail: width bits remain
		w.WriteUint(v, k)
	}
	return w.BitString(), nil
}

// ReadUnary consumes a unary code (ones terminated by a zero). Runs of ones
// grow linearly with the ring size under the unary counter ablation, so it
// counts them 64 at a time.
func (r *Reader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		rem := r.s.n - r.pos
		// The window is zero past the end, so the run of ones stops there.
		ones := bits.LeadingZeros64(^r.window())
		if ones < min(rem, 64) {
			r.pos += ones + 1
			return v + uint64(ones), nil
		}
		if rem <= 64 {
			return 0, fmt.Errorf("read unary: %w: no terminating zero by bit %d", ErrTruncated, r.s.n)
		}
		r.pos += 64
		v += 64
	}
}

// ReadEliasGamma consumes an Elias gamma code and returns the positive
// integer it encodes. The zero prefix is counted in one step; a codeword of
// up to 64 bits (values below 2³²) is then taken from the same window.
func (r *Reader) ReadEliasGamma() (uint64, error) {
	rem := r.s.n - r.pos
	win := r.window()
	zeros := bits.LeadingZeros64(win)
	if zeros >= rem {
		return 0, fmt.Errorf("read gamma prefix: %w: no leading 1 by bit %d", ErrTruncated, r.s.n)
	}
	if zeros >= 64 {
		// No writer emits more than 63 zeros: the value would need 65 bits.
		return 0, errors.New("bits: gamma code exceeds 64-bit range")
	}
	width := 2*zeros + 1
	if width > rem {
		return 0, fmt.Errorf("read gamma value: %w: %d-bit code at bit %d of %d", ErrTruncated, width, r.pos, r.s.n)
	}
	if width <= 64 {
		r.pos += width
		return win >> (64 - uint(width)), nil
	}
	// The leading 1 of the value is the window's bit `zeros`; read the
	// remaining bits.
	r.pos += zeros + 1
	rest, _ := r.ReadUint(zeros) // cannot fail: the codeword fits in rem
	return 1<<uint(zeros) | rest, nil
}

// ReadGammaValue consumes a value written with Writer.WriteGammaValue.
func (r *Reader) ReadGammaValue() (uint64, error) {
	v, err := r.ReadEliasGamma()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// ReadEliasDelta consumes an Elias delta code and returns the positive
// integer it encodes. A codeword of up to 64 bits (values below 2⁵⁴) is
// decoded from one window; longer ones, and malformed ones, go through
// ReadEliasGamma and ReadUint.
func (r *Reader) ReadEliasDelta() (uint64, error) {
	win := r.window()
	if m := bits.LeadingZeros64(win); m < 6 {
		// The gamma code of the length n is the window's top 2m+1 bits;
		// the n-1 bits of v after its leading 1 follow.
		n := int(win >> (63 - 2*uint(m)))
		if width := 2*m + n; width <= r.s.n-r.pos && width <= 64 {
			r.pos += width
			return 1<<uint(n-1) | win<<uint(2*m+1)>>(65-uint(n)), nil
		}
	}
	n, err := r.ReadEliasGamma()
	if err != nil {
		return 0, fmt.Errorf("read delta length: %w", err)
	}
	if n > 64 {
		return 0, errors.New("bits: delta code length out of range")
	}
	rest, err := r.ReadUint(int(n - 1))
	if err != nil {
		return 0, fmt.Errorf("read delta value: %w", err)
	}
	return 1<<uint(n-1) | rest, nil
}

// ReadDeltaValue consumes a value written with Writer.WriteDeltaValue.
func (r *Reader) ReadDeltaValue() (uint64, error) {
	v, err := r.ReadEliasDelta()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}
