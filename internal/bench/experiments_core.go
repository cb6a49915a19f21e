package bench

import (
	"fmt"

	"ringlang/internal/automata"
	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/trace"
)

// Default sweep sizes. They are exported so the cmd tool can scale them down
// for quick runs.
var (
	// LinearSizes is used by the O(n) and O(n log n) experiments.
	LinearSizes = []int{64, 256, 1024, 4096}
	// QuadraticSizes is used by the Θ(n²) experiments (odd, so wcw members
	// exist at exactly these sizes).
	QuadraticSizes = []int{65, 129, 257, 513, 1025}
	// HierarchySizes is used by the L_g experiments.
	HierarchySizes = []int{64, 256, 1024}
	// TraceSizes is used by the information-state experiment (traces are
	// memory hungry).
	TraceSizes = []int{32, 64, 128, 256}
	// TMSizes is used by the TM transformation experiment (the example
	// machines are Θ(n²)-time).
	TMSizes = []int{8, 16, 32, 64}
)

// ExperimentE1 measures Theorem 1/6: every regular language is recognized
// with exactly ⌈log |Q|⌉·n bits by the one-pass DFA-state algorithm.
func ExperimentE1(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E1",
		Title:      "Regular languages in O(n) bits (Theorem 1/6)",
		PaperClaim: "a language is recognized with O(n) bits iff it is regular; the one-pass algorithm uses ⌈log|Q|⌉ bits per message",
		Columns:    []string{"language", "|Q|", "n", "bits", "bits/n", "ceil(log|Q|)"},
	}
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		return nil, err
	}
	for _, reg := range regs {
		rec := core.NewRegularOnePass(reg)
		points, err := MeasureRecognizer(rec, sizes, MeasureOptions{Kind: RandomWords})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(reg.Name(), fmtInt(reg.DFA().NumStates), fmtInt(p.N), fmtInt(p.Bits),
				perN(p.Bits, p.N), fmtInt(rec.StateBits()))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope = %.3f (linear ⇒ ≈1)",
			reg.Name(), FitLogLogSlope(points)))
	}
	return t, nil
}

// ExperimentE2 measures the Ω(n log n) class (Theorem 4/5): the counting
// recognizer for a non-regular length language and the three-counter
// recognizer both scale as n log n.
func ExperimentE2(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E2",
		Title:      "Non-regular languages need Ω(n log n) bits (Theorem 4/5)",
		PaperClaim: "every non-regular language requires Ω(n log n) bits; counting-based recognizers meet the bound",
		Columns:    []string{"algorithm", "language", "n", "bits", "bits/(n·log n)", "bits/n"},
	}
	recs := []core.Recognizer{core.NewSquareCount(), core.NewThreeCounters()}
	for _, rec := range recs {
		points, err := MeasureRecognizer(rec, sizes, MeasureOptions{})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(rec.Name(), rec.Language().Name(), fmtInt(p.N), fmtInt(p.Bits),
				perNLogN(p.Bits, p.N), perN(p.Bits, p.N))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope = %.3f (n log n ⇒ slightly above 1)",
			rec.Name(), FitLogLogSlope(points)))
	}
	return t, nil
}

// ExperimentE2b measures the lower-bound machinery itself: the number of
// distinct information states after an execution stays bounded for a regular
// recognizer and grows linearly for non-regular ones (at most two processors
// may share a state, Theorem 4).
func ExperimentE2b(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E2b",
		Title:      "Information states: bounded for regular, ~n for non-regular (Theorems 2/4)",
		PaperClaim: "O(n)-bit algorithms have finitely many information states; non-regular recognizers end with ≥ ⌈n/2⌉ distinct states",
		Columns:    []string{"algorithm", "n", "distinct info states", "max multiplicity", "distinct messages"},
	}
	regs, err := lang.StandardRegularLanguages()
	if err != nil {
		return nil, err
	}
	recs := []core.Recognizer{core.NewRegularOnePass(regs[0]), core.NewSquareCount(), core.NewThreeCounters()}
	for _, rec := range recs {
		for _, n := range sizes {
			_, res, word, err := MeasureOne(rec, n, MeasureOptions{Kind: RandomWords}, true)
			if err != nil {
				return nil, err
			}
			analysis, err := trace.ComputeInformationStates(res.Trace, InputsForTrace(word))
			if err != nil {
				return nil, err
			}
			t.AddRow(rec.Name(), fmtInt(len(word)), fmtInt(analysis.Distinct),
				fmtInt(analysis.MaxMultiplicity), fmtInt(trace.MessageAlphabetSize(res.Trace)))
		}
	}
	t.Notes = append(t.Notes,
		"regular-one-pass keeps both columns bounded by |Q|·|Σ| regardless of n (Corollary 3)",
		"count and three-counters end with Θ(n) distinct states — the structure that forces Ω(n log n) bits")
	return t, nil
}

// ExperimentE3 measures Section 7 note 1: {wcw} needs Θ(n²) bits; the
// streaming comparison meets it with a smaller constant than collect-all.
func ExperimentE3(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E3",
		Title:      "{wcw} requires Θ(n²) bits (Section 7 note 1)",
		PaperClaim: "every algorithm for L = {wcw} uses Ω(n²) bits; the trivial upper bound is also O(n²)",
		Columns:    []string{"algorithm", "n", "bits", "bits/n²", "messages"},
	}
	language := lang.NewWcW()
	recs := []core.Recognizer{core.NewCompareWcW(), core.NewCollectAll(language)}
	for _, rec := range recs {
		points, err := MeasureRecognizer(rec, sizes, MeasureOptions{})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(rec.Name(), fmtInt(p.N), fmtInt(p.Bits), perN2(p.Bits, p.N), fmtInt(p.Messages))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope = %.3f (quadratic ⇒ ≈2)",
			rec.Name(), FitLogLogSlope(points)))
	}
	return t, nil
}

// ExperimentE4 measures Section 7 note 2: {0ᵏ1ᵏ2ᵏ} — context-sensitive and
// not context-free — is recognized in O(n log n) bits by three counters,
// far below its collect-all baseline.
func ExperimentE4(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E4",
		Title:      "{0^k 1^k 2^k} in O(n log n) bits with three counters (Section 7 note 2)",
		PaperClaim: "a context-sensitive, non-context-free language recognizable in O(n log n) bits",
		Columns:    []string{"algorithm", "n", "bits", "bits/(n·log n)", "bits/n²"},
	}
	recs := []core.Recognizer{core.NewThreeCounters(), core.NewCollectAll(lang.NewAnBnCn())}
	for _, rec := range recs {
		points, err := MeasureRecognizer(rec, sizes, MeasureOptions{})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(rec.Name(), fmtInt(p.N), fmtInt(p.Bits), perNLogN(p.Bits, p.N), perN2(p.Bits, p.N))
		}
	}
	t.Notes = append(t.Notes, "the hierarchy position does not follow the Chomsky hierarchy: this CS language is cheaper than the linear language wcw of E3")
	return t, nil
}

// ExperimentE5 measures Section 7 note 3: the Θ(g(n)) hierarchy between
// n log n and n² realized by the L_g family.
func ExperimentE5(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E5",
		Title:      "The Θ(g(n)) hierarchy between n·log n and n² (Section 7 note 3)",
		PaperClaim: "for every g with n log n ≤ g(n) ≤ n² there is a language of bit complexity Θ(g(n))",
		Columns:    []string{"g(n)", "n", "p(n)", "bits", "bits/g(n)", "bits/(n·log n)", "bits/n²"},
	}
	for _, growth := range lang.StandardGrowthFuncs() {
		language := lang.NewLg(growth)
		rec := core.NewLgRecognizer(language)
		points, err := MeasureRecognizer(rec, sizes, MeasureOptions{})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			g := growth.F(p.N)
			t.AddRow(growth.Name, fmtInt(p.N), fmtInt(language.Period(p.N)), fmtInt(p.Bits),
				fmtFloat(float64(p.Bits)/g), perNLogN(p.Bits, p.N), perN2(p.Bits, p.N))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope = %.3f", growth.Name, FitLogLogSlope(points)))
	}
	return t, nil
}

// ExperimentE6 measures Section 7 note 4: when n is known the counting pass
// disappears and the complexity is Θ(g(n)) with no n log n floor.
func ExperimentE6(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E6",
		Title:      "Knowing n removes the n·log n term (Section 7 note 4)",
		PaperClaim: "if n is known there is no complexity gap above n: L_g costs Θ(g(n)) for every g ≥ n",
		Columns:    []string{"g(n)", "n", "bits (n unknown)", "bits (n known)", "known/g(n)", "saved bits"},
	}
	for _, growth := range lang.StandardGrowthFuncs() {
		language := lang.NewLg(growth)
		unknownRec := core.NewLgRecognizer(language)
		knownRec := core.NewLgRecognizerKnownN(language)
		unknownPts, err := MeasureRecognizer(unknownRec, sizes, MeasureOptions{})
		if err != nil {
			return nil, err
		}
		knownPts, err := MeasureRecognizer(knownRec, sizes, MeasureOptions{})
		if err != nil {
			return nil, err
		}
		if len(unknownPts) != len(knownPts) {
			return nil, fmt.Errorf("bench: E6 sweep size mismatch")
		}
		for i := range unknownPts {
			u, k := unknownPts[i], knownPts[i]
			g := growth.F(k.N)
			t.AddRow(growth.Name, fmtInt(k.N), fmtInt(u.Bits), fmtInt(k.Bits),
				fmtFloat(float64(k.Bits)/g), fmtInt(u.Bits-k.Bits))
		}
	}
	t.Notes = append(t.Notes, "the saved bits column is the Θ(n log n) counting pass the paper charges for computing n")
	return t, nil
}

// buildUnminimizedDFA compiles a regular expression without minimizing it, for
// the A2 ablation.
func buildUnminimizedDFA(expr string) (*automata.DFA, error) {
	nfa, err := automata.CompileRegex(expr)
	if err != nil {
		return nil, err
	}
	return automata.Determinize(nfa), nil
}
