package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// String is an immutable-by-convention sequence of bits. The zero value is an
// empty string. It is the payload type carried by every ring message; its
// Len is the quantity the complexity results count.
type String struct {
	// data holds the bits packed most-significant-bit first within each byte.
	data []byte
	// n is the number of valid bits in data.
	n int
}

// ErrOutOfRange is returned when a bit index is outside [0, Len).
var ErrOutOfRange = errors.New("bits: index out of range")

// Empty returns an empty bit string.
func Empty() String {
	return String{}
}

// FromBools builds a String from a slice of booleans, one bit per element.
func FromBools(bs []bool) String {
	var w Writer
	for _, b := range bs {
		w.WriteBool(b)
	}
	return w.String()
}

// FromBinary parses a string of '0' and '1' runes (other runes are rejected).
func FromBinary(s string) (String, error) {
	var w Writer
	for _, r := range s {
		switch r {
		case '0':
			w.WriteBool(false)
		case '1':
			w.WriteBool(true)
		default:
			return String{}, fmt.Errorf("bits: invalid binary rune %q", r)
		}
	}
	return w.String(), nil
}

// MustFromBinary is FromBinary that panics on malformed input. It is intended
// for constant test fixtures only.
func MustFromBinary(s string) String {
	bs, err := FromBinary(s)
	if err != nil {
		panic(err)
	}
	return bs
}

// View wraps the first n bits of data (packed MSB-first, the layout Raw
// returns) as a String without copying. The view aliases data: it is valid
// only for as long as the caller keeps those bytes intact. The engine's
// payload arenas use it to hand queued messages back out of flat storage.
func View(data []byte, n int) String {
	return String{data: data, n: n}
}

// load64 returns the first 8 bytes of data as a big-endian word. When data
// is shorter, the missing bytes read as zero: it never indexes at or past
// len(data), because payloads are views into flat arenas whose next bytes
// belong to other messages. Short tails take two overlapping loads.
func load64(data []byte) uint64 {
	switch n := uint(len(data)); {
	case n >= 8:
		return binary.BigEndian.Uint64(data)
	case n >= 4:
		return uint64(binary.BigEndian.Uint32(data))<<32 |
			uint64(binary.BigEndian.Uint32(data[n-4:]))<<(64-8*n)
	case n >= 2:
		return uint64(binary.BigEndian.Uint16(data))<<48 |
			uint64(binary.BigEndian.Uint16(data[n-2:]))<<(64-8*n)
	case n == 1:
		return uint64(data[0]) << 56
	}
	return 0
}

// Raw returns the packed backing bytes of the string — ceil(Len/8) bytes,
// MSB-first, with any trailing bits of the last byte unspecified. The slice
// aliases the string's storage and must not be mutated; pair with View to
// move payloads through flat byte arenas without re-encoding bit by bit.
func (s String) Raw() []byte {
	return s.data[:(s.n+7)/8]
}

// Len returns the number of bits in the string.
func (s String) Len() int {
	return s.n
}

// IsEmpty reports whether the string contains no bits.
func (s String) IsEmpty() bool {
	return s.n == 0
}

// Bit returns the i-th bit (0-indexed from the first written bit).
func (s String) Bit(i int) (bool, error) {
	if i < 0 || i >= s.n {
		return false, fmt.Errorf("%w: %d (len %d)", ErrOutOfRange, i, s.n)
	}
	byteIdx := i / 8
	bitIdx := uint(7 - i%8)
	return s.data[byteIdx]>>bitIdx&1 == 1, nil
}

// Bools expands the string into a slice of booleans.
func (s String) Bools() []bool {
	out := make([]bool, s.n)
	for i := 0; i < s.n; i++ {
		b, _ := s.Bit(i)
		out[i] = b
	}
	return out
}

// Binary renders the string as a sequence of '0'/'1' characters.
func (s String) Binary() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b, _ := s.Bit(i)
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// String implements fmt.Stringer; it shows the length and a (possibly
// truncated) binary rendering, which keeps traces readable.
func (s String) String() string {
	const maxShown = 64
	bin := s.Binary()
	if len(bin) > maxShown {
		bin = bin[:maxShown] + "..."
	}
	return fmt.Sprintf("bits[%d]{%s}", s.n, bin)
}

// Equal reports whether two bit strings have identical length and content.
func (s String) Equal(other String) bool {
	if s.n != other.n {
		return false
	}
	full := s.n / 8
	for i := 0; i < full; i++ {
		if s.data[i] != other.data[i] {
			return false
		}
	}
	rem := s.n % 8
	if rem == 0 {
		return true
	}
	mask := byte(0xFF << uint(8-rem))
	return s.data[full]&mask == other.data[full]&mask
}

// Concat returns the concatenation s followed by other.
func (s String) Concat(other String) String {
	var w Writer
	w.WriteString(s)
	w.WriteString(other)
	return w.String()
}

// Clone returns a deep copy of the string. Because String is treated as
// immutable this is rarely necessary, but the engine clones payloads at trust
// boundaries so a misbehaving algorithm cannot mutate recorded traces.
func (s String) Clone() String {
	data := make([]byte, len(s.data))
	copy(data, s.data)
	return String{data: data, n: s.n}
}

// Key returns a compact comparable representation usable as a map key. Two
// strings have the same key iff Equal reports true.
func (s String) Key() string {
	full := s.n / 8
	rem := s.n % 8
	buf := make([]byte, 0, len(s.data)+2)
	buf = append(buf, byte(s.n>>8), byte(s.n))
	buf = append(buf, s.data[:full]...)
	if rem != 0 {
		mask := byte(0xFF << uint(8-rem))
		buf = append(buf, s.data[full]&mask)
	}
	return string(buf)
}
