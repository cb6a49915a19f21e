package bits

import "testing"

// TestCodecHotPathAllocs is the guard= target of the //ring:hotpath
// directives on Writer.WriteBool/WriteUint and Reader.ReadBool/ReadUint:
// once a reused Writer's backing has grown past warm-up, a full
// encode/decode round trip performs zero allocations. Every message codec
// in the module funnels through these four functions, so this pins the
// per-message floor the engine alloc guards build on. The round trip also
// covers the split paths: codewords wider than 64 bits (γ of 2⁴⁰, δ of
// 2⁶²), a 64-bit read off byte alignment, and an unaligned WriteString.
func TestCodecHotPathAllocs(t *testing.T) {
	var w Writer
	var r Reader
	var tail Writer
	tail.WriteUint(0x0123_4567_89AB_CDEF, 64)
	tail.WriteUint(0x5, 3)
	payload := tail.String()
	round := func() {
		w.Reset()
		w.WriteBool(true)
		w.WriteUint(0xDEAD, 16)
		w.WriteGammaValue(41)
		w.WriteDeltaValue(1023)
		w.WriteGammaValue(1 << 40)
		w.WriteDeltaValue(1 << 62)
		w.WriteUint(0xFEED_FACE_CAFE_BEEF, 64)
		w.WriteString(payload)
		r.Reset(w.BitString())
		if _, err := r.ReadBool(); err != nil {
			t.Fatal(err)
		}
		if v, err := r.ReadUint(16); err != nil || v != 0xDEAD {
			t.Fatalf("ReadUint = %#x, %v", v, err)
		}
		if v, err := r.ReadGammaValue(); err != nil || v != 41 {
			t.Fatalf("ReadGammaValue = %d, %v", v, err)
		}
		if v, err := r.ReadDeltaValue(); err != nil || v != 1023 {
			t.Fatalf("ReadDeltaValue = %d, %v", v, err)
		}
		if v, err := r.ReadGammaValue(); err != nil || v != 1<<40 {
			t.Fatalf("ReadGammaValue = %d, %v", v, err)
		}
		if v, err := r.ReadDeltaValue(); err != nil || v != 1<<62 {
			t.Fatalf("ReadDeltaValue = %d, %v", v, err)
		}
		if pos := w.Len() - r.Remaining(); pos%2 == 0 {
			t.Fatalf("the 64-bit read below starts at bit %d; it must be at an odd alignment", pos)
		}
		if v, err := r.ReadUint(64); err != nil || v != 0xFEED_FACE_CAFE_BEEF {
			t.Fatalf("ReadUint(64) = %#x, %v", v, err)
		}
		if v, err := r.ReadUint(64); err != nil || v != 0x0123_4567_89AB_CDEF {
			t.Fatalf("ReadUint(64) = %#x, %v", v, err)
		}
		if v, err := r.ReadUint(3); err != nil || v != 0x5 || !r.AtEnd() {
			t.Fatalf("ReadUint(3) = %#x, %v, %d bits left", v, err, r.Remaining())
		}
	}
	round() // warm-up: grow the writer's backing once
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm codec round trip allocates %.1f times per run; the hot path must be allocation-free", allocs)
	}
}
