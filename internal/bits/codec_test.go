package bits

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestWriteReadUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9}, {1 << 20, 21},
		{math.MaxUint64, 64}, {12345, 64},
	}
	for _, c := range cases {
		var w Writer
		w.WriteUint(c.v, c.width)
		if w.Len() != c.width {
			t.Errorf("WriteUint(%d,%d) wrote %d bits", c.v, c.width, w.Len())
		}
		r := NewReader(w.String())
		got, err := r.ReadUint(c.width)
		if err != nil {
			t.Fatalf("ReadUint: %v", err)
		}
		if got != c.v {
			t.Errorf("round trip %d width %d = %d", c.v, c.width, got)
		}
		if !r.AtEnd() {
			t.Errorf("reader not at end after reading %d bits", c.width)
		}
	}
}

func TestEliasGammaKnownCodes(t *testing.T) {
	// Canonical gamma codewords.
	want := map[uint64]string{
		1: "1",
		2: "010",
		3: "011",
		4: "00100",
		5: "00101",
		8: "0001000",
	}
	for v, code := range want {
		var w Writer
		w.WriteEliasGamma(v)
		if got := w.String().Binary(); got != code {
			t.Errorf("gamma(%d) = %s, want %s", v, got, code)
		}
	}
}

func TestEliasDeltaKnownCodes(t *testing.T) {
	want := map[uint64]string{
		1:  "1",
		2:  "0100",
		3:  "0101",
		4:  "01100",
		10: "00100010",
	}
	for v, code := range want {
		var w Writer
		w.WriteEliasDelta(v)
		if got := w.String().Binary(); got != code {
			t.Errorf("delta(%d) = %s, want %s", v, got, code)
		}
	}
}

func TestGammaDeltaRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 4, 7, 8, 100, 1023, 1024, 1 << 30, 1<<62 - 1}
	for _, v := range values {
		var w Writer
		w.WriteGammaValue(v)
		w.WriteDeltaValue(v)
		r := NewReader(w.String())
		g, err := r.ReadGammaValue()
		if err != nil {
			t.Fatalf("ReadGammaValue(%d): %v", v, err)
		}
		d, err := r.ReadDeltaValue()
		if err != nil {
			t.Fatalf("ReadDeltaValue(%d): %v", v, err)
		}
		if g != v || d != v {
			t.Errorf("round trip %d: gamma=%d delta=%d", v, g, d)
		}
		if !r.AtEnd() {
			t.Errorf("leftover bits after decoding %d", v)
		}
	}
}

func TestGammaDeltaLengths(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 5, 63, 64, 1000, 1 << 20} {
		var w Writer
		w.WriteGammaValue(v)
		if w.Len() != GammaLen(v) {
			t.Errorf("GammaLen(%d) = %d, actual %d", v, GammaLen(v), w.Len())
		}
		var w2 Writer
		w2.WriteDeltaValue(v)
		if w2.Len() != DeltaLen(v) {
			t.Errorf("DeltaLen(%d) = %d, actual %d", v, DeltaLen(v), w2.Len())
		}
	}
}

func TestGammaLengthIsLogarithmic(t *testing.T) {
	// 2⌊log2(v+1)⌋+1 ≤ 2 log2(v+1) + 1.
	for _, v := range []uint64{10, 100, 1000, 1 << 20, 1 << 40} {
		bound := 2*math.Log2(float64(v+1)) + 1.0001
		if float64(GammaLen(v)) > bound {
			t.Errorf("GammaLen(%d) = %d exceeds 2log2(v+1)+1 = %f", v, GammaLen(v), bound)
		}
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 17, 100} {
		var w Writer
		w.WriteUnary(v)
		if w.Len() != int(v)+1 {
			t.Errorf("unary(%d) length = %d", v, w.Len())
		}
		r := NewReader(w.String())
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatalf("ReadUnary: %v", err)
		}
		if got != v {
			t.Errorf("unary round trip %d = %d", v, got)
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	r := NewReader(w.String())
	if _, err := r.ReadUint(5); err == nil {
		t.Fatal("expected truncation error")
	}
	r2 := NewReader(Empty())
	if _, err := r2.ReadBool(); err == nil {
		t.Fatal("expected truncation error on empty payload")
	}
	if _, err := NewReader(Empty()).ReadEliasGamma(); err == nil {
		t.Fatal("expected truncation error for gamma on empty payload")
	}
}

// TestGammaRejectsOverlongPrefix: a γ code of a uint64 has at most 63 zeros
// before its leading 1. With 64 zeros the value would need 65 bits, so it
// must be a range error, not a silent wrap (64 zeros, a 1 and 64 zeros once
// decoded to 0, and ReadGammaValue to 2⁶⁴−1).
func TestGammaRejectsOverlongPrefix(t *testing.T) {
	for _, zeros := range []int{64, 65, 100} {
		var w Writer
		for range zeros {
			w.WriteBool(false)
		}
		w.WriteBool(true)
		w.WriteUint(0, 64)
		w.WriteUint(0, zeros-64)
		s := w.String()
		decoders := map[string]func(r *Reader) (uint64, error){
			"ReadEliasGamma": (*Reader).ReadEliasGamma,
			"ReadGammaValue": (*Reader).ReadGammaValue,
			"ReadDeltaValue": (*Reader).ReadDeltaValue,
		}
		for name, decode := range decoders {
			v, err := decode(NewReader(s))
			if err == nil {
				t.Errorf("%s of a %d-zero prefix = %d, want a range error", name, zeros, v)
			} else if errors.Is(err, ErrTruncated) {
				t.Errorf("%s of a %d-zero prefix: %v; the code is complete, so it is a range error, not truncation", name, zeros, err)
			}
		}
	}
	// 63 zeros is the longest valid prefix.
	var w Writer
	w.WriteEliasGamma(1 << 63)
	if w.Len() != 127 {
		t.Fatalf("gamma(2^63) is %d bits, want 127", w.Len())
	}
	if v, err := NewReader(w.String()).ReadEliasGamma(); err != nil || v != 1<<63 {
		t.Fatalf("ReadEliasGamma(gamma(2^63)) = %d, %v", v, err)
	}
}

// TestReadTruncatedAtEveryBit cuts a valid stream at every bit of its last
// field. A read that runs past the end must fail with ErrTruncated, and a
// failed ReadUint must leave the reader where it was. Each cut string is a
// view of exactly ⌈cut/8⌉ bytes, as the engine's arena hands payloads out.
func TestReadTruncatedAtEveryBit(t *testing.T) {
	cut := func(s String, n int) String { return View(s.Raw()[:(n+7)/8], n) }
	for align := 0; align < 8; align++ {
		for width := 1; width <= 64; width++ {
			var w Writer
			w.WriteUint(0x5A, align)
			w.WriteUint(0xA5C3_F00F_1E2D_3C4B, width)
			full := w.String()
			for n := align; n < align+width; n++ {
				r := NewReader(cut(full, n))
				if _, err := r.ReadUint(align); err != nil {
					t.Fatalf("align %d: %v", align, err)
				}
				_, err := r.ReadUint(width)
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("ReadUint(%d) at bit %d of %d: err %v, want ErrTruncated", width, align, n, err)
				}
				if r.Remaining() != n-align {
					t.Fatalf("ReadUint(%d) at bit %d of %d moved the reader: %d bits remain, want %d", width, align, n, r.Remaining(), n-align)
				}
			}
		}
	}
	for _, v := range []uint64{1, 2, 5, 1000, 1<<32 - 1, 1 << 32, 1<<54 - 1, 1 << 54, math.MaxUint64} {
		for align := 0; align < 8; align++ {
			for _, code := range []struct {
				name   string
				encode func(*Writer, uint64)
				decode func(*Reader) (uint64, error)
			}{
				{"gamma", (*Writer).WriteEliasGamma, (*Reader).ReadEliasGamma},
				{"delta", (*Writer).WriteEliasDelta, (*Reader).ReadEliasDelta},
			} {
				var w Writer
				w.WriteUint(0x5A, align)
				code.encode(&w, v)
				full := w.String()
				for n := align; n < full.Len(); n++ {
					r := NewReader(cut(full, n))
					if _, err := r.ReadUint(align); err != nil {
						t.Fatal(err)
					}
					if got, err := code.decode(r); !errors.Is(err, ErrTruncated) {
						t.Fatalf("%s(%d) cut to %d bits at align %d: got %d, err %v, want ErrTruncated", code.name, v, n, align, got, err)
					}
				}
				r := NewReader(full)
				if _, err := r.ReadUint(align); err != nil {
					t.Fatal(err)
				}
				if got, err := code.decode(r); err != nil || got != v || !r.AtEnd() {
					t.Fatalf("%s(%d) at align %d: got %d, err %v, %d bits left", code.name, v, align, got, err, r.Remaining())
				}
			}
		}
	}
}

func TestUintWidth(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9}
	for v, want := range cases {
		if got := UintWidth(v); got != want {
			t.Errorf("UintWidth(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteUint(0xFF, 8)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("after Reset len = %d", w.Len())
	}
	w.WriteBool(true)
	if got := w.String().Binary(); got != "1" {
		t.Fatalf("after Reset write = %q", got)
	}
}

func TestQuickGammaRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		var w Writer
		w.WriteGammaValue(uint64(v))
		got, err := NewReader(w.String()).ReadGammaValue()
		return err == nil && got == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteDeltaValue(v)
		got, err := NewReader(w.String()).ReadDeltaValue()
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMixedFieldsRoundTrip(t *testing.T) {
	f := func(a uint16, b bool, c uint32, width8 uint8) bool {
		width := int(width8%16) + 1
		var w Writer
		w.WriteUint(uint64(a)&(1<<uint(width)-1), width)
		w.WriteBool(b)
		w.WriteDeltaValue(uint64(c))
		r := NewReader(w.String())
		ga, err1 := r.ReadUint(width)
		gb, err2 := r.ReadBool()
		gc, err3 := r.ReadDeltaValue()
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return ga == uint64(a)&(1<<uint(width)-1) && gb == b && gc == uint64(c) && r.AtEnd()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
