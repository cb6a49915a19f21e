package core

import (
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
)

// This file states, in code, the bit-complexity formulas the paper assigns to
// each algorithm, as checkable envelopes. Each model predicts a [lower,
// upper] band for BIT(n); the test suite and the verification tool run the
// algorithms and assert the measured totals stay inside the band. This is the
// closest executable analogue of the paper's per-algorithm analyses.

// ComplexityModel is a predicted bit-complexity envelope for one recognizer.
type ComplexityModel struct {
	// Algorithm is the recognizer name the model applies to.
	Algorithm string
	// Claim is the paper's asymptotic statement.
	Claim string
	// Lower and Upper bound BIT(n) for a ring of size n. Lower is allowed to
	// be loose (it exists to catch accidental "too cheap to be true"
	// regressions such as an algorithm silently skipping processors).
	Lower func(n int) float64
	Upper func(n int) float64
}

// Contains reports whether a measured total lies inside the envelope.
func (m ComplexityModel) Contains(n, measuredBits int) bool {
	b := float64(measuredBits)
	return b >= m.Lower(n) && b <= m.Upper(n)
}

// Describe renders the check for error messages.
func (m ComplexityModel) Describe(n, measuredBits int) string {
	return fmt.Sprintf("%s at n=%d: measured %d bits, envelope [%.0f, %.0f] (%s)",
		m.Algorithm, n, measuredBits, m.Lower(n), m.Upper(n), m.Claim)
}

// deltaBits bounds the Elias-δ code length for values up to v.
func deltaBits(v int) float64 {
	if v < 1 {
		v = 1
	}
	return float64(bits.DeltaLen(uint64(v)))
}

// ModelRegularOnePass is the Theorem 1 envelope: exactly ⌈log|Q|⌉ bits per
// processor.
func ModelRegularOnePass(rec *RegularOnePass) ComplexityModel {
	stateBits := float64(rec.StateBits())
	return ComplexityModel{
		Algorithm: rec.Name(),
		Claim:     "Theorem 1: BIT(n) = ⌈log|Q|⌉·n",
		Lower:     func(n int) float64 { return stateBits * float64(n) },
		Upper:     func(n int) float64 { return stateBits * float64(n) },
	}
}

// ModelCount is the counting-pass envelope: n messages of one δ-coded counter
// each, i.e. Θ(n log n).
func ModelCount() ComplexityModel {
	return ComplexityModel{
		Algorithm: "count",
		Claim:     "Section 8 example: BIT(n) = Θ(n log n)",
		Lower:     func(n int) float64 { return float64(n) },
		Upper:     func(n int) float64 { return float64(n) * (deltaBits(n) + 1) },
	}
}

// ModelThreeCounters is the Section 7 note 2 envelope: three δ-coded counters
// plus three header bits per message.
func ModelThreeCounters() ComplexityModel {
	return ComplexityModel{
		Algorithm: "three-counters",
		Claim:     "Section 7.2: BIT(n) = O(n log n)",
		Lower:     func(n int) float64 { return 3 * float64(n) },
		Upper:     func(n int) float64 { return float64(n) * (3*deltaBits(n) + 3) },
	}
}

// ModelBalancedCounter is the Dyck depth-counter envelope.
func ModelBalancedCounter() ComplexityModel {
	return ComplexityModel{
		Algorithm: "balanced-counter",
		Claim:     "extension of Section 7.2: BIT(n) = O(n log n)",
		Lower:     func(n int) float64 { return 2 * float64(n) },
		Upper:     func(n int) float64 { return float64(n) * (deltaBits(n) + 1) },
	}
}

// ModelCompareWcW is the Section 7 note 1 envelope: the queue peaks at
// ⌈n/2⌉ letters, so the total sits between n²/8 and roughly n²/2 plus
// per-message headers.
func ModelCompareWcW() ComplexityModel {
	return ComplexityModel{
		Algorithm: "compare-wcw",
		Claim:     "Section 7.1: BIT(n) = Θ(n²)",
		Lower:     func(n int) float64 { return float64(n) * float64(n) / 8 },
		Upper:     func(n int) float64 { return float64(n)*float64(n)/2 + float64(n)*(deltaBits(n)+4) },
	}
}

// ModelCollectAll is the universal upper bound: message i carries i letters
// of ⌈log|Σ|⌉ bits plus a δ-coded length.
func ModelCollectAll(rec *CollectAll) ComplexityModel {
	letterBits := float64(bits.UintWidth(uint64(rec.Language().Alphabet().Size() - 1)))
	return ComplexityModel{
		Algorithm: "collect-all",
		Claim:     "Section 1: BIT(n) = O(n² log|Σ|)",
		Lower:     func(n int) float64 { return letterBits * float64(n) * float64(n) / 2 },
		Upper: func(n int) float64 {
			return letterBits*float64(n+1)*float64(n)/2 + float64(n)*(deltaBits(n)+1)
		},
	}
}

// ModelLg is the Section 7 note 3 envelope: a counting pass plus a window
// pass of p(n) letters (+ headers) per message; with known n the counting
// pass disappears.
func ModelLg(rec *LgRecognizer) ComplexityModel {
	language, _ := rec.Language().(*lang.Lg)
	return ComplexityModel{
		Algorithm: rec.Name(),
		Claim:     "Section 7.3/7.4: BIT(n) = Θ(g(n)) (+ n log n when n is unknown)",
		Lower: func(n int) float64 {
			return float64(language.Period(n)) * float64(n) / 2
		},
		Upper: func(n int) float64 {
			p := language.Period(n)
			window := float64(n) * (float64(p) + 2*deltaBits(p) + deltaBits(n) + 1)
			if rec.KnownN() {
				return window
			}
			return window + float64(n)*(deltaBits(n)+1)
		},
	}
}

// ModelParityTwoPass is the exact Section 7 note 5 two-pass formula.
func ModelParityTwoPass(language *lang.ParityIndex) ComplexityModel {
	k := language.K()
	return ComplexityModel{
		Algorithm: "parity-two-pass",
		Claim:     "Section 7.5: BIT(n) = (2k+1)·n",
		Lower:     func(n int) float64 { return float64((2*k + 1) * n) },
		Upper:     func(n int) float64 { return float64((2*k + 1) * n) },
	}
}

// ModelParityOnePass is the exact Section 7 note 5 one-pass formula.
func ModelParityOnePass(language *lang.ParityIndex) ComplexityModel {
	k := language.K()
	return ComplexityModel{
		Algorithm: "parity-one-pass",
		Claim:     "Section 7.5: BIT(n) = (k+2^k−1)·n",
		Lower:     func(n int) float64 { return float64((k + (1 << uint(k)) - 1) * n) },
		Upper:     func(n int) float64 { return float64((k + (1 << uint(k)) - 1) * n) },
	}
}

// StandardModels pairs ready-made recognizers with their envelopes; the
// verification test sweeps all of them.
func StandardModels() ([]Recognizer, []ComplexityModel, error) {
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		return nil, nil, err
	}
	parity3, err := lang.NewParityIndex(3)
	if err != nil {
		return nil, nil, err
	}
	var recs []Recognizer
	var models []ComplexityModel

	for _, reg := range regs {
		rec := NewRegularOnePass(reg)
		recs = append(recs, rec)
		models = append(models, ModelRegularOnePass(rec))
	}
	countRec := NewSquareCount()
	recs = append(recs, countRec)
	models = append(models, ModelCount())

	recs = append(recs, NewThreeCounters())
	models = append(models, ModelThreeCounters())

	recs = append(recs, NewMajority())
	models = append(models, ModelMajority())

	recs = append(recs, NewBalancedCounter())
	models = append(models, ModelBalancedCounter())

	recs = append(recs, NewCompareWcW())
	models = append(models, ModelCompareWcW())

	collect := NewCollectAll(lang.NewAnBnCn())
	recs = append(recs, collect)
	models = append(models, ModelCollectAll(collect))

	for _, g := range lang.StandardGrowthFuncs() {
		unknown := NewLgRecognizer(lang.NewLg(g))
		known := NewLgRecognizerKnownN(lang.NewLg(g))
		recs = append(recs, unknown, known)
		models = append(models, ModelLg(unknown), ModelLg(known))
	}

	recs = append(recs, NewParityTwoPass(parity3))
	models = append(models, ModelParityTwoPass(parity3))
	recs = append(recs, NewParityOnePass(parity3))
	models = append(models, ModelParityOnePass(parity3))

	return recs, models, nil
}
