package bits

import (
	"fmt"
	"testing"
)

// BenchmarkCodec times the codec primitives on their own, at the shapes the
// ring's recognizers use them:
//
//   - WriteUint/ReadUint of 13-bit fields, byte-aligned and 3 bits off;
//   - one Elias δ counter encode or decode at the served ring sizes, the
//     per-message work of count, majority and balanced-counter;
//   - one three-counters token (a flag, a 2-bit phase, three δ counters)
//     encoded and decoded, as one delivery does.
//
// Every op reuses one Writer and one Reader, so the numbers are the warm,
// allocation-free steady state the engine runs in.
//
//	go test -run '^$' -bench Codec -benchmem ./internal/bits
func BenchmarkCodec(b *testing.B) {
	const width, fields = 13, 64
	for _, pad := range []int{0, 3} {
		name := "aligned"
		if pad != 0 {
			name = "unaligned"
		}
		b.Run("WriteUint/"+name, func(b *testing.B) {
			var w Writer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%fields == 0 {
					w.Reset()
					w.WriteUint(0, pad)
				}
				w.WriteUint(uint64(i), width)
			}
		})
		b.Run("ReadUint/"+name, func(b *testing.B) {
			var w Writer
			w.WriteUint(0, pad)
			for i := 0; i < fields; i++ {
				w.WriteUint(uint64(i)*97, width)
			}
			s := w.BitString()
			var r Reader
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%fields == 0 {
					r.Reset(s)
					if _, err := r.ReadUint(pad); err != nil {
						b.Fatal(err)
					}
				}
				v, err := r.ReadUint(width)
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
			_ = sink
		})
	}
	for _, n := range []uint64{1024, 2048, 4096, 8192} {
		b.Run(fmt.Sprintf("DeltaEncode/n=%d", n), func(b *testing.B) {
			var w Writer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.WriteDeltaValue(n - uint64(i)%n)
			}
		})
		b.Run(fmt.Sprintf("DeltaDecode/n=%d", n), func(b *testing.B) {
			var w Writer
			w.WriteDeltaValue(n - 1)
			s := w.BitString()
			var r Reader
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(s)
				if v, err := r.ReadDeltaValue(); err != nil || v != n-1 {
					b.Fatalf("ReadDeltaValue = %d, %v", v, err)
				}
			}
		})
	}
	b.Run("ThreeCountersToken/n=4096", func(b *testing.B) {
		counts := [3]uint64{1365, 1365, 1366}
		var w Writer
		var r Reader
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			w.WriteBool(true)
			w.WriteUint(2, 2)
			for _, c := range counts {
				w.WriteDeltaValue(c)
			}
			r.Reset(w.BitString())
			if ok, err := r.ReadBool(); err != nil || !ok {
				b.Fatalf("ReadBool = %v, %v", ok, err)
			}
			if phase, err := r.ReadUint(2); err != nil || phase != 2 {
				b.Fatalf("ReadUint = %d, %v", phase, err)
			}
			for _, c := range counts {
				if v, err := r.ReadDeltaValue(); err != nil || v != c {
					b.Fatalf("ReadDeltaValue = %d, %v", v, err)
				}
			}
		}
	})
}
