package ringlang_test

// One testing.B benchmark per core experiment (E1–E10) plus the design
// ablations (A1–A3) and engine micro-benchmarks. Each benchmark runs a
// reduced but representative sweep per iteration and reports the normalized
// quantity the corresponding paper claim is about (bits/n, bits/(n·log n),
// bits/n², overhead factors) as a custom metric, so `go test -bench=.`
// regenerates the shape of every result.
//
// This file lives in the external test package: internal/bench's pooled
// sweeps run through the ringlang.Client, so an in-package import of bench
// would be a cycle.

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"ringlang/internal/bench"
	"ringlang/internal/core"
	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
	"ringlang/internal/tm"
)

// benchSizes are deliberately smaller than the full cmd/ringbench sweeps so
// a full -bench=. run stays fast; cmd/ringbench runs the full versions.
var (
	benchLinearSizes    = []int{64, 256, 1024}
	benchQuadraticSizes = []int{65, 129, 257}
	benchHierarchySizes = []int{64, 256}
	benchTMSizes        = []int{8, 16, 32}
)

func reportSlope(b *testing.B, points []bench.Point) {
	b.Helper()
	slope := bench.FitLogLogSlope(points)
	if !math.IsNaN(slope) {
		b.ReportMetric(slope, "loglog-slope")
	}
}

func measureOrFatal(b *testing.B, rec core.Recognizer, sizes []int, opts bench.MeasureOptions) []bench.Point {
	b.Helper()
	points, err := bench.MeasureRecognizer(rec, sizes, opts)
	if err != nil {
		b.Fatal(err)
	}
	return points
}

// BenchmarkE1RegularLinear — Theorem 1/6: regular languages in ⌈log|Q|⌉·n bits.
func BenchmarkE1RegularLinear(b *testing.B) {
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		b.Fatal(err)
	}
	var points []bench.Point
	for i := 0; i < b.N; i++ {
		points = points[:0]
		for _, reg := range regs {
			rec := core.NewRegularOnePass(reg)
			points = append(points, measureOrFatal(b, rec, benchLinearSizes, bench.MeasureOptions{Kind: bench.RandomWords})...)
		}
	}
	last := points[len(points)-1]
	b.ReportMetric(float64(last.Bits)/float64(last.N), "bits/n")
	reportSlope(b, points)
}

// BenchmarkE2NonRegularNLogN — Theorem 4/5: non-regular recognizers at n·log n.
func BenchmarkE2NonRegularNLogN(b *testing.B) {
	var points []bench.Point
	for i := 0; i < b.N; i++ {
		points = points[:0]
		points = append(points, measureOrFatal(b, core.NewSquareCount(), benchLinearSizes, bench.MeasureOptions{Kind: bench.RandomWords})...)
		points = append(points, measureOrFatal(b, core.NewThreeCounters(), benchLinearSizes, bench.MeasureOptions{})...)
	}
	last := points[len(points)-1]
	b.ReportMetric(float64(last.Bits)/(float64(last.N)*math.Log2(float64(last.N))), "bits/nlogn")
	reportSlope(b, points)
}

// BenchmarkE2bInfoStates — the information-state counting behind Theorems 2/4.
func BenchmarkE2bInfoStates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExperimentE2b([]int{32, 64, 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Quadratic — Section 7 note 1: {wcw} at Θ(n²) bits.
func BenchmarkE3Quadratic(b *testing.B) {
	var streaming, baseline []bench.Point
	for i := 0; i < b.N; i++ {
		streaming = measureOrFatal(b, core.NewCompareWcW(), benchQuadraticSizes, bench.MeasureOptions{})
		baseline = measureOrFatal(b, core.NewCollectAll(lang.NewWcW()), benchQuadraticSizes, bench.MeasureOptions{})
	}
	last := streaming[len(streaming)-1]
	b.ReportMetric(float64(last.Bits)/(float64(last.N)*float64(last.N)), "bits/n2")
	b.ReportMetric(float64(baseline[len(baseline)-1].Bits)/float64(last.Bits), "collectall/streaming")
	reportSlope(b, streaming)
}

// BenchmarkE4ThreeCounters — Section 7 note 2: {0^k1^k2^k} at O(n log n) bits.
func BenchmarkE4ThreeCounters(b *testing.B) {
	var points []bench.Point
	for i := 0; i < b.N; i++ {
		points = measureOrFatal(b, core.NewThreeCounters(), benchLinearSizes, bench.MeasureOptions{})
	}
	last := points[len(points)-1]
	b.ReportMetric(float64(last.Bits)/(float64(last.N)*math.Log2(float64(last.N))), "bits/nlogn")
	reportSlope(b, points)
}

// BenchmarkE5Hierarchy — Section 7 note 3: the Θ(g(n)) hierarchy.
func BenchmarkE5Hierarchy(b *testing.B) {
	for _, growth := range lang.StandardGrowthFuncs() {
		growth := growth
		b.Run(growth.Name, func(b *testing.B) {
			language := lang.NewLg(growth)
			rec := core.NewLgRecognizer(language)
			var points []bench.Point
			for i := 0; i < b.N; i++ {
				points = measureOrFatal(b, rec, benchHierarchySizes, bench.MeasureOptions{})
			}
			last := points[len(points)-1]
			b.ReportMetric(float64(last.Bits)/growth.F(last.N), "bits/g(n)")
			reportSlope(b, points)
		})
	}
}

// BenchmarkE6KnownN — Section 7 note 4: knowing n removes the n·log n term.
func BenchmarkE6KnownN(b *testing.B) {
	language := lang.NewLg(lang.GrowthN15)
	var unknown, known []bench.Point
	for i := 0; i < b.N; i++ {
		unknown = measureOrFatal(b, core.NewLgRecognizer(language), benchHierarchySizes, bench.MeasureOptions{})
		known = measureOrFatal(b, core.NewLgRecognizerKnownN(language), benchHierarchySizes, bench.MeasureOptions{})
	}
	u, k := unknown[len(unknown)-1], known[len(known)-1]
	b.ReportMetric(float64(u.Bits-k.Bits), "saved-bits")
	b.ReportMetric(float64(k.Bits)/lang.GrowthN15.F(k.N), "known-bits/g(n)")
}

// BenchmarkE7PassTradeoff — Section 7 note 5: passes vs bits.
func BenchmarkE7PassTradeoff(b *testing.B) {
	const n = 128
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			language, err := lang.NewParityIndex(k)
			if err != nil {
				b.Fatal(err)
			}
			var two, one []bench.Point
			for i := 0; i < b.N; i++ {
				two = measureOrFatal(b, core.NewParityTwoPass(language), []int{n}, bench.MeasureOptions{})
				one = measureOrFatal(b, core.NewParityOnePass(language), []int{n}, bench.MeasureOptions{})
			}
			b.ReportMetric(float64(two[0].Bits)/float64(n), "twopass-bits/n")
			b.ReportMetric(float64(one[0].Bits)/float64(n), "onepass-bits/n")
		})
	}
}

// BenchmarkE8LineSimulation — Theorem 7 Stage 1: cut-link overhead.
func BenchmarkE8LineSimulation(b *testing.B) {
	inner := core.NewCountBackward(lang.NewPerfectSquareLength())
	sim, err := core.NewLineSimulation(inner)
	if err != nil {
		b.Fatal(err)
	}
	var direct, simulated []bench.Point
	for i := 0; i < b.N; i++ {
		direct = measureOrFatal(b, inner, benchHierarchySizes, bench.MeasureOptions{Kind: bench.RandomWords})
		simulated = measureOrFatal(b, sim, benchHierarchySizes, bench.MeasureOptions{Kind: bench.RandomWords})
	}
	d, s := direct[len(direct)-1], simulated[len(simulated)-1]
	b.ReportMetric(float64(s.Bits)/float64(d.Bits), "overhead-factor")
	b.ReportMetric(float64(s.Bits-d.Bits)/float64(s.N), "overhead-bits/n")
}

// BenchmarkE9Election — the [DKR] substrate: message complexity of election.
// Hirschberg–Sinclair keeps many probes in flight at once, the one workload
// on which the sharded engine's segment workers run in parallel, so it is
// timed under both sequential and sharded, on seeded random identifiers at a
// ring large enough to shard.
func BenchmarkE9Election(b *testing.B) {
	hsIDs := election.RandomIDs(1<<12, rand.New(rand.NewSource(1)))
	protocols := []struct {
		name   string
		p      election.Protocol
		ids    []uint64
		engine ring.Engine
	}{
		{"chang-roberts-worst", election.ChangRoberts, election.DescendingIDs(256), nil},
		{"dkr-worst", election.DolevKlaweRodeh, election.DescendingIDs(256), nil},
		{"hirschberg-sinclair/sequential", election.HirschbergSinclair, hsIDs, ring.NewSequentialEngine()},
		{"hirschberg-sinclair/sharded", election.HirschbergSinclair, hsIDs, ring.NewShardedEngine()},
	}
	for _, proto := range protocols {
		proto := proto
		b.Run(proto.name, func(b *testing.B) {
			var out *election.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				out, err = election.Run(proto.p, proto.ids, proto.engine)
				if err != nil {
					b.Fatal(err)
				}
			}
			n := float64(len(proto.ids))
			b.ReportMetric(float64(out.Stats.Messages)/(n*math.Log2(n)), "msgs/nlogn")
		})
	}
}

// BenchmarkE10TMTransform — Section 8: TM time to ring bits.
func BenchmarkE10TMTransform(b *testing.B) {
	machines := []struct {
		name     string
		machine  *tm.Machine
		language lang.Language
	}{
		{"zeroes-ones", tm.NewZeroesOnesMachine(), lang.NewAnBn()},
		{"palindrome", tm.NewPalindromeMachine(), lang.NewPalindrome()},
	}
	for _, m := range machines {
		m := m
		b.Run(m.name, func(b *testing.B) {
			rec, err := tm.NewRingRecognizer(m.machine, m.language)
			if err != nil {
				b.Fatal(err)
			}
			var points []bench.Point
			for i := 0; i < b.N; i++ {
				points = measureOrFatal(b, rec, benchTMSizes, bench.MeasureOptions{})
			}
			last := points[len(points)-1]
			direct, err := m.machine.Run([]rune(mustMember(b, m.language, last.N).String()), 1<<24)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(last.Bits)/float64(direct.Steps), "bits/step")
		})
	}
}

// BenchmarkA1CounterCodings — ablation: δ vs γ vs unary counters.
func BenchmarkA1CounterCodings(b *testing.B) {
	language := lang.NewPerfectSquareLength()
	for _, coding := range []core.CounterCoding{core.CodingDelta, core.CodingGamma, core.CodingUnary} {
		coding := coding
		b.Run(coding.String(), func(b *testing.B) {
			rec := core.NewCountWithCoding(language, coding)
			var points []bench.Point
			for i := 0; i < b.N; i++ {
				points = measureOrFatal(b, rec, benchHierarchySizes, bench.MeasureOptions{Kind: bench.RandomWords})
			}
			last := points[len(points)-1]
			b.ReportMetric(float64(last.Bits)/(float64(last.N)*math.Log2(float64(last.N))), "bits/nlogn")
		})
	}
}

// BenchmarkA2Minimization — ablation: minimized vs subset-construction DFA.
func BenchmarkA2Minimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ExperimentA2([]int{64, 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3EngineOverhead — ablation: sequential vs concurrent engine
// runtime cost for the same algorithm and input.
func BenchmarkA3EngineOverhead(b *testing.B) {
	word, _ := lang.NewAnBnCn().GenerateMember(300, rand.New(rand.NewSource(1)))
	engines := []struct {
		name   string
		engine ring.Engine
	}{
		{"sequential", ring.NewSequentialEngine()},
		{"concurrent", ring.NewConcurrentEngine()},
	}
	for _, e := range engines {
		e := e
		b.Run(e.name, func(b *testing.B) {
			rec := core.NewThreeCounters()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(rec, word, core.RunOptions{Engine: e.engine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroCountRun times one whole cold run of the square-length
// count recognizer (a δ-coded counter on the sequential engine) at n = 1024:
// node construction, the engine loop and the codec together. The codec on
// its own is BenchmarkCodec in internal/bits.
func BenchmarkMicroCountRun(b *testing.B) {
	rec := core.NewSquareCount()
	word := lang.RandomWord(rec.Language().Alphabet(), 1024, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(rec, word, core.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSuiteQuick runs the entire quick experiment suite once per
// iteration — the closest thing to "regenerate every table" under -bench.
func BenchmarkFullSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.RunAll(io.Discard, bench.SuiteQuick); err != nil {
			b.Fatal(err)
		}
	}
}

func mustMember(b *testing.B, language lang.Language, n int) lang.Word {
	b.Helper()
	w, _, err := lang.MemberOrSkip(language, n, 8, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	return w
}
