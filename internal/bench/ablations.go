package bench

import (
	"fmt"

	"ringlang/internal/core"
	"ringlang/internal/lang"
)

// ExperimentA1 is the counter-encoding ablation behind the O(n log n) totals:
// the same counting algorithm with Elias-δ, Elias-γ and unary counters.
func ExperimentA1(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "A1",
		Title:      "Ablation: counter encoding in the counting pass",
		PaperClaim: "self-delimiting logarithmic counter codes are what keep the counting algorithm at Θ(n log n); unary counters degrade it to Θ(n²)",
		Columns:    []string{"coding", "n", "bits", "bits/(n·log n)", "bits/n²"},
	}
	language := lang.NewPerfectSquareLength()
	for _, coding := range []core.CounterCoding{core.CodingDelta, core.CodingGamma, core.CodingUnary} {
		rec := core.NewCountWithCoding(language, coding)
		points, err := MeasureRecognizer(rec, sizes, MeasureOptions{Kind: RandomWords})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(coding.String(), fmtInt(p.N), fmtInt(p.Bits), perNLogN(p.Bits, p.N), perN2(p.Bits, p.N))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: log-log slope = %.3f", coding, FitLogLogSlope(points)))
	}
	return t, nil
}

// ExperimentA2 is the automaton-minimization ablation: the one-pass regular
// recognizer with the raw subset-construction DFA versus the minimized one.
func ExperimentA2(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "A2",
		Title:      "Ablation: DFA minimization and the linear constant of Theorem 1",
		PaperClaim: "the one-pass algorithm costs ⌈log|Q|⌉·n bits, so minimizing |Q| directly lowers the constant",
		Columns:    []string{"automaton", "|Q|", "n", "bits", "bits/n"},
	}
	const expr = "(a|b)*abb"
	language, err := lang.NewRegularFromRegex("ends-abb", expr)
	if err != nil {
		return nil, err
	}
	raw, err := buildUnminimizedDFA(expr)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		rec  *core.RegularOnePass
		q    int
	}{
		{name: "subset-construction", rec: core.NewRegularOnePassWithDFA(language, raw), q: raw.NumStates},
		{name: "minimized", rec: core.NewRegularOnePass(language), q: language.DFA().NumStates},
	}
	for _, v := range variants {
		points, err := MeasureRecognizer(v.rec, sizes, MeasureOptions{Kind: RandomWords})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(v.name, fmtInt(v.q), fmtInt(p.N), fmtInt(p.Bits), perN(p.Bits, p.N))
		}
	}
	return t, nil
}
