package bits

import (
	"encoding/binary"
	"math/bits"
)

// Writer composes a bit string field by field. The zero value is ready to
// use. Writers are not safe for concurrent use.
//
// data holds the n bits written so far, packed MSB-first: len(data) is
// ⌈n/8⌉ and the unused low bits of the last byte are zero. Bytes past
// len(data) are spare capacity with unspecified contents, which lets every
// write be one 8-byte big-endian store.
type Writer struct {
	data []byte
	n    int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int {
	return w.n
}

// WriteBool appends a single bit.
//
//ring:hotpath guard=TestCodecHotPathAllocs
func (w *Writer) WriteBool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.WriteUint(v, 1)
}

// WriteUint appends the low `width` bits of v, most significant bit first.
// Width zero writes nothing. Widths above 64 are clamped to 64.
//
// Every message codec funnels through here (fixed-width fields and whole
// Elias codewords), so this is the encode hot path: the field is shifted
// into place behind the bits already in the current byte and stored as one
// big-endian word, plus one byte when an unaligned 58–64-bit field spills
// past it.
//
//ring:hotpath guard=TestCodecHotPathAllocs
func (w *Writer) WriteUint(v uint64, width int) {
	if width <= 0 {
		return
	}
	if width > 64 {
		width = 64
	}
	i := w.n >> 3
	if cap(w.data)-i < 9 {
		w.grow()
	}
	off := uint(w.n) & 7
	span := w.data[i : i+9]
	// Keep the current byte's first off bits; v follows them MSB-aligned,
	// and every bit after v is zero.
	word := uint64(span[0]&^(0xFF>>off))<<56 | v<<(64-uint(width))>>off
	binary.BigEndian.PutUint64(span, word)
	if spill := int(off) + width - 64; spill > 0 {
		span[8] = byte(v << (8 - uint(spill)))
	}
	w.n += width
	w.data = w.data[:(w.n+7)>>3]
}

// grow reallocates data with room for a 9-byte store at the byte holding
// bit n. A reused writer keeps its backing across Reset, so this runs only
// while a writer warms up.
func (w *Writer) grow() {
	data := make([]byte, len(w.data), 2*cap(w.data)+16)
	copy(data, w.data)
	w.data = data
}

// WriteString appends an existing bit string, 64 bits per write.
func (w *Writer) WriteString(s String) {
	data, n := s.data, s.n
	for ; n >= 64; n -= 64 {
		w.WriteUint(binary.BigEndian.Uint64(data), 64)
		data = data[8:]
	}
	if n > 0 {
		w.WriteUint(load64(data[:(n+7)>>3])>>(64-uint(n)), n)
	}
}

// WriteUnary appends v as a unary code: v ones followed by a zero. It is used
// only by tests and by deliberately wasteful baseline encodings, whose runs of
// ones grow linearly with the ring size, so it writes 64 ones at a time.
func (w *Writer) WriteUnary(v uint64) {
	for ; v >= 64; v -= 64 {
		w.WriteUint(^uint64(0), 64)
	}
	w.WriteUint(1<<64-2, int(v)+1) // v ones, then the zero
}

// WriteEliasGamma appends v >= 1 using the Elias gamma code
// (⌊log2 v⌋ zeros, then the binary representation of v). The code length is
// 2⌊log2 v⌋ + 1 bits, and the codeword is v itself written at that width:
// one write for v < 2³², two above.
func (w *Writer) WriteEliasGamma(v uint64) {
	if v == 0 {
		// Gamma is defined for positive integers; shift by one so that the
		// full uint64 range round-trips. Decoders undo the shift.
		v = 1
	}
	n := bits.Len64(v) - 1 // ⌊log2 v⌋
	if n < 32 {
		w.WriteUint(v, 2*n+1)
		return
	}
	w.WriteUint(0, n)
	w.WriteUint(v, n+1)
}

// WriteGammaValue appends an arbitrary uint64 (including zero) by encoding
// v+1 with Elias gamma.
func (w *Writer) WriteGammaValue(v uint64) {
	w.WriteEliasGamma(v + 1)
}

// WriteEliasDelta appends v >= 1 using the Elias delta code (the length of v
// is itself gamma coded). Asymptotically log2 v + O(log log v) bits. The
// whole codeword is one write for v < 2⁵⁴, two above.
func (w *Writer) WriteEliasDelta(v uint64) {
	if v == 0 {
		v = 1
	}
	n := bits.Len64(v)             // number of binary digits of v
	m := bits.Len64(uint64(n)) - 1 // ⌊log2 n⌋: the gamma code of n is 2m+1 bits
	if width := 2*m + n; width <= 64 {
		// The gamma code of n is n at width 2m+1; v's bits after its
		// leading 1 follow, so n takes the place of that 1.
		w.WriteUint(uint64(n)<<uint(n-1)|v&^(1<<uint(n-1)), width)
		return
	}
	w.WriteUint(uint64(n), 2*m+1)
	w.WriteUint(v, n-1)
}

// WriteDeltaValue appends an arbitrary uint64 (including zero) by encoding
// v+1 with Elias delta.
func (w *Writer) WriteDeltaValue(v uint64) {
	w.WriteEliasDelta(v + 1)
}

// String returns the accumulated bit string. The Writer may continue to be
// used afterwards; the returned String is a snapshot.
func (w *Writer) String() String {
	data := make([]byte, len(w.data))
	copy(data, w.data)
	return String{data: data, n: w.n}
}

// BitString returns the accumulated bits as a String that aliases the
// writer's buffer — no copy is made. The returned String is valid only until
// the writer's next Write or Reset; callers that hand it to longer-lived
// consumers must uphold that discipline themselves (the ring engine's
// single-token payload path does) or snapshot with String instead.
func (w *Writer) BitString() String {
	return String{data: w.data, n: w.n}
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.data = w.data[:0]
	w.n = 0
}

// GammaLen returns the number of bits WriteGammaValue(v) would emit.
func GammaLen(v uint64) int {
	return 2*(bits.Len64(v+1)-1) + 1
}

// DeltaLen returns the number of bits WriteDeltaValue(v) would emit.
func DeltaLen(v uint64) int {
	n := bits.Len64(v + 1)
	return GammaLenPositive(uint64(n)) + n - 1
}

// GammaLenPositive returns the gamma code length of a positive integer.
func GammaLenPositive(v uint64) int {
	if v == 0 {
		v = 1
	}
	return 2*(bits.Len64(v)-1) + 1
}

// UintWidth returns the minimum fixed width (in bits) able to represent every
// value in [0, max]. It is the ⌈log₂(max+1)⌉ quantity that appears throughout
// the paper as ⌈log |Q|⌉.
func UintWidth(max uint64) int {
	if max == 0 {
		return 1
	}
	return bits.Len64(max)
}
