package bits

// Fuzz targets for the codec round-trips. Every message on the ring is built
// from these primitives, so "whatever the writer emits, the reader recovers,
// at any bit alignment" is the package's load-bearing invariant. CI runs each
// target briefly (see .github/workflows/ci.yml); longer local sessions with
// `go test -fuzz=FuzzX ./internal/bits` extend the corpus.

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
)

// FuzzUintRoundTrip checks fixed-width fields at every alignment: a prefix of
// `pad` bits shifts the field off byte boundaries, so a field shares its
// first and last bytes with its neighbours.
func FuzzUintRoundTrip(f *testing.F) {
	f.Add(uint64(0), 1, uint(0))
	f.Add(uint64(1), 1, uint(1))
	f.Add(uint64(255), 8, uint(3))
	f.Add(uint64(0xDEADBEEF), 32, uint(7))
	f.Add(^uint64(0), 64, uint(5))
	f.Add(uint64(42), 200, uint(2)) // width clamps to 64
	f.Fuzz(func(t *testing.T, v uint64, width int, pad uint) {
		// Mask rather than negate: -math.MinInt overflows back to negative.
		width &= 0x7F
		pad %= 16
		var w Writer
		for i := uint(0); i < pad; i++ {
			w.WriteBool(i%2 == 0)
		}
		w.WriteUint(v, width)
		effWidth := width
		if effWidth > 64 {
			effWidth = 64
		}
		wantLen := int(pad) + effWidth
		if w.Len() != wantLen {
			t.Fatalf("WriteUint(%d, %d) after %d pad bits wrote %d bits, want %d", v, width, pad, w.Len(), wantLen)
		}
		want := v
		if effWidth < 64 {
			want &= 1<<uint(effWidth) - 1
		}
		r := NewReader(w.String())
		for i := uint(0); i < pad; i++ {
			if _, err := r.ReadBool(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := r.ReadUint(effWidth)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip of %d at width %d pad %d: got %d", v, width, pad, got)
		}
		if !r.AtEnd() {
			t.Fatalf("%d bits left over", r.Remaining())
		}
	})
}

// FuzzEliasRoundTrip interleaves the self-delimiting codes (unary, Elias γ,
// Elias δ) with misaligning single bits and checks both the decoded values
// and the documented code lengths.
func FuzzEliasRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(1), false)
	f.Add(uint64(1), uint64(0), true)
	f.Add(uint64(127), uint64(128), false)
	f.Add(^uint64(0)-1, uint64(1)<<62, true)
	f.Fuzz(func(t *testing.T, a, b uint64, bit bool) {
		// The value codecs encode v+1, so the single value 2^64-1 wraps and
		// does not round-trip; no ring message can carry it (payload values
		// are counters bounded by the ring size), so it is excluded here.
		if a == ^uint64(0) {
			a--
		}
		if b == ^uint64(0) {
			b--
		}
		unary := a % 300
		var w Writer
		w.WriteBool(bit)
		w.WriteGammaValue(a)
		w.WriteDeltaValue(b)
		w.WriteUnary(unary)
		w.WriteDeltaValue(a)
		wantLen := 1 + GammaLen(a) + DeltaLen(b) + int(unary) + 1 + DeltaLen(a)
		if w.Len() != wantLen {
			t.Fatalf("wrote %d bits, length formulas say %d", w.Len(), wantLen)
		}
		r := NewReader(w.String())
		gotBit, err := r.ReadBool()
		if err != nil || gotBit != bit {
			t.Fatalf("bit: %v %v", gotBit, err)
		}
		if got, err := r.ReadGammaValue(); err != nil || got != a {
			t.Fatalf("gamma(%d): got %d, err %v", a, got, err)
		}
		if got, err := r.ReadDeltaValue(); err != nil || got != b {
			t.Fatalf("delta(%d): got %d, err %v", b, got, err)
		}
		if got, err := r.ReadUnary(); err != nil || got != unary {
			t.Fatalf("unary(%d): got %d, err %v", unary, got, err)
		}
		if got, err := r.ReadDeltaValue(); err != nil || got != a {
			t.Fatalf("delta(%d): got %d, err %v", a, got, err)
		}
		if !r.AtEnd() {
			t.Fatalf("%d bits left over", r.Remaining())
		}
	})
}

// FuzzReaderRobust feeds arbitrary bytes to every decoder: they may reject
// the input but must never panic, and must never read past the end.
func FuzzReaderRobust(f *testing.F) {
	f.Add([]byte{}, uint(0))
	f.Add([]byte{0x00}, uint(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint(24))
	f.Add([]byte{0x55, 0xAA, 0x01, 0x80}, uint(30))
	f.Fuzz(func(t *testing.T, data []byte, nbits uint) {
		n := int(nbits) % (len(data)*8 + 1)
		var w Writer
		for i := 0; i < n; i++ {
			w.WriteBool(data[i/8]>>(7-i%8)&1 == 1)
		}
		s := w.String()
		if s.Len() != n {
			t.Fatalf("built %d bits, want %d", s.Len(), n)
		}
		decoders := []func(r *Reader) error{
			func(r *Reader) error { _, err := r.ReadBool(); return err },
			func(r *Reader) error { _, err := r.ReadUint(17); return err },
			func(r *Reader) error { _, err := r.ReadUnary(); return err },
			func(r *Reader) error { _, err := r.ReadGammaValue(); return err },
			func(r *Reader) error { _, err := r.ReadDeltaValue(); return err },
			func(r *Reader) error { _, err := r.ReadString(r.Remaining()); return err },
		}
		for i, decode := range decoders {
			r := NewReader(s)
			for decode(r) == nil {
				if r.Remaining() < 0 {
					t.Fatalf("decoder %d read past the end", i)
				}
				if r.AtEnd() {
					break
				}
			}
		}
	})
}

// refOp is one field of FuzzCodecMatchesReference's op sequence.
type refOp struct {
	kind  byte // 0 bool, 1 uint, 2 gamma, 3 delta, 4 unary
	v     uint64
	width int
}

// refCode is the op's codeword as '0'/'1' text, built from the definitions
// alone: MSB first; γ(v) is ⌊log₂v⌋ zeros then v in binary; δ(v) is γ of
// v's digit count then v's digits after the leading 1; unary(v) is v ones
// then a zero.
func refCode(op refOp) string {
	switch op.kind {
	case 0:
		return strconv.FormatUint(op.v, 2)
	case 1:
		width := min(op.width, 64)
		var sb strings.Builder
		for i := width - 1; i >= 0; i-- {
			sb.WriteByte('0' + byte(op.v>>uint(i)&1))
		}
		return sb.String()
	case 2:
		bin := strconv.FormatUint(op.v, 2)
		return strings.Repeat("0", len(bin)-1) + bin
	case 3:
		bin := strconv.FormatUint(op.v, 2)
		return refCode(refOp{kind: 2, v: uint64(len(bin))}) + bin[1:]
	default:
		return strings.Repeat("1", int(op.v)) + "0"
	}
}

// refPack packs '0'/'1' text MSB-first into bytes, zero-padding the last.
func refPack(text string) []byte {
	out := make([]byte, (len(text)+7)/8)
	for i := range len(text) {
		if text[i] == '1' {
			out[i/8] |= 0x80 >> (i % 8)
		}
	}
	return out
}

// FuzzCodecMatchesReference checks the codec against an oracle that shares
// no code with it. The round-trip targets above only check that Writer and
// Reader agree, so a mistake mirrored on both sides (LSB-first packing, say)
// passes them; here the Writer's output must equal, bit for bit and byte for
// byte, the codewords refCode builds from their definitions, and the Reader
// must then return every value.
func FuzzCodecMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 13, 0, 0, 0, 0, 0, 0, 0x1F, 0xFF, 2, 0, 0, 0, 0, 0, 0, 0, 41})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0x10, 0, 1, 71, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 4, 130})
	f.Add([]byte{0, 0, 3, 0x80, 0, 0, 0, 0, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, prog []byte) {
		word := func() uint64 {
			var buf [8]byte
			prog = prog[copy(buf[:], prog):]
			return binary.BigEndian.Uint64(buf[:])
		}
		var ops []refOp
		for len(prog) > 0 && len(ops) < 64 {
			op := refOp{kind: prog[0] % 5}
			prog = prog[1:]
			switch op.kind {
			case 0:
				op.v = word() & 1
			case 1:
				if len(prog) > 0 {
					op.width = int(prog[0]) % 81
					prog = prog[1:]
				}
				op.v = word()
				if op.width < 64 {
					op.v &= 1<<uint(op.width) - 1
				}
			case 2, 3:
				op.v = max(word(), 1)
			case 4:
				if len(prog) > 0 {
					op.v = uint64(prog[0]) % 200
					prog = prog[1:]
				}
			}
			ops = append(ops, op)
		}

		var w Writer
		var ref strings.Builder
		for _, op := range ops {
			switch op.kind {
			case 0:
				w.WriteBool(op.v == 1)
			case 1:
				w.WriteUint(op.v, op.width)
			case 2:
				w.WriteEliasGamma(op.v)
			case 3:
				w.WriteEliasDelta(op.v)
			case 4:
				w.WriteUnary(op.v)
			}
			ref.WriteString(refCode(op))
		}
		want := ref.String()
		s := w.String()
		if got := s.Binary(); got != want {
			t.Fatalf("ops %v:\nwriter    %s\nreference %s", ops, got, want)
		}
		if got, wantBytes := w.BitString().Raw(), refPack(want); !bytes.Equal(got, wantBytes) {
			t.Fatalf("ops %v: writer bytes %x, reference %x", ops, got, wantBytes)
		}

		r := NewReader(s)
		for i, op := range ops {
			var got uint64
			var err error
			switch op.kind {
			case 0:
				var b bool
				b, err = r.ReadBool()
				if b {
					got = 1
				}
			case 1:
				got, err = r.ReadUint(op.width)
			case 2:
				got, err = r.ReadEliasGamma()
			case 3:
				got, err = r.ReadEliasDelta()
			case 4:
				got, err = r.ReadUnary()
			}
			if err != nil || got != op.v {
				t.Fatalf("op %d %+v: read %d, err %v", i, op, got, err)
			}
		}
		if !r.AtEnd() {
			t.Fatalf("%d bits left over", r.Remaining())
		}
	})
}
