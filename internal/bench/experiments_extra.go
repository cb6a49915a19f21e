package bench

import (
	"fmt"
	"math"
	"math/rand"

	"ringlang/internal/core"
	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/tm"
)

// ParityRingSize is the fixed ring size used by the passes-vs-bits trade-off
// (the sweep parameter is k, not n).
const ParityRingSize = 256

// ExperimentE7 measures Section 7 note 5: the passes-versus-bits trade-off
// for the parity-index language over 2ᵏ letters.
func ExperimentE7(ks []int, n int) (*Table, error) {
	t := &Table{
		ID:         "E7",
		Title:      fmt.Sprintf("Passes vs bits for a regular language (Section 7 note 5), n=%d", n),
		PaperClaim: "two passes recognize it with (2k+1)·n bits; one pass needs (k+2^k−1)·n bits",
		Columns:    []string{"k", "|Σ|=2^k", "two-pass bits", "(2k+1)n", "one-pass bits", "(k+2^k-1)n", "cheaper"},
	}
	for _, k := range ks {
		language, err := lang.NewParityIndex(k)
		if err != nil {
			return nil, err
		}
		two := core.NewParityTwoPass(language)
		one := core.NewParityOnePass(language)
		twoPts, err := MeasureRecognizer(two, []int{n}, MeasureOptions{Seed: DefaultSeed + int64(k)})
		if err != nil {
			return nil, err
		}
		onePts, err := MeasureRecognizer(one, []int{n}, MeasureOptions{Seed: DefaultSeed + int64(k)})
		if err != nil {
			return nil, err
		}
		twoBits, oneBits := twoPts[0].Bits, onePts[0].Bits
		cheaper := "one-pass"
		if twoBits < oneBits {
			cheaper = "two-pass"
		} else if twoBits == oneBits {
			cheaper = "tie"
		}
		t.AddRow(fmtInt(k), fmtInt(1<<uint(k)), fmtInt(twoBits), fmtInt((2*k+1)*n),
			fmtInt(oneBits), fmtInt((k+(1<<uint(k))-1)*n), cheaper)
	}
	t.Notes = append(t.Notes,
		"the measured columns match the paper's formulas exactly (the encodings are bit-for-bit the ones analysed)",
		"one pass wins only for k ≤ 2; beyond that the exponential 2^k per-message cost dominates and the extra pass pays for itself")
	return t, nil
}

// ExperimentE8 measures the Theorem 7 Stage 1 line simulation: rerouting all
// traffic off the leader–p_n link costs only an additive O(n) overhead.
func ExperimentE8(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E8",
		Title:      "Line simulation of a bidirectional algorithm (Theorem 7, Stage 1)",
		PaperClaim: "cutting the leader–p_n link costs at most (2c₁(1+⌈log c₂⌉))·n + BIT_A(n) extra bits",
		Columns:    []string{"n", "direct bits", "simulated bits", "overhead", "overhead/n", "cut-link traffic"},
	}
	inner := core.NewCountBackward(lang.NewPerfectSquareLength())
	sim, err := core.NewLineSimulation(inner)
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		directPt, _, _, err := MeasureOne(inner, n, MeasureOptions{Kind: RandomWords}, false)
		if err != nil {
			return nil, err
		}
		simPt, simRes, _, err := MeasureOne(sim, n, MeasureOptions{Kind: RandomWords}, false)
		if err != nil {
			return nil, err
		}
		cut := 0
		for _, ls := range simRes.Stats.Links() {
			if (ls.From == 0 && ls.To == simPt.N-1) || (ls.From == simPt.N-1 && ls.To == 0) {
				cut += ls.Bits
			}
		}
		overhead := simPt.Bits - directPt.Bits
		t.AddRow(fmtInt(simPt.N), fmtInt(directPt.Bits), fmtInt(simPt.Bits), fmtInt(overhead),
			fmtFloat(float64(overhead)/float64(simPt.N)), fmtInt(cut))
	}
	t.Notes = append(t.Notes, "cut-link traffic is 0 by construction: the simulation never uses the leader–p_n link")
	return t, nil
}

// ExperimentE9 measures the leader-election substrate: Dolev–Klawe–Rodeh
// stays O(n log n) messages even on the adversarial ring that drives
// Chang–Roberts to Θ(n²).
func ExperimentE9(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E9",
		Title:      "Establishing the leader: election message complexity ([DKR] substrate)",
		PaperClaim: "a leader can be found with O(n log n) messages; this bound is best possible",
		Columns:    []string{"n", "CR random msgs", "CR worst msgs", "DKR worst msgs", "DKR msgs/(n·log n)"},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(DefaultSeed + int64(n)))
		crRandom, err := election.Run(election.ChangRoberts, election.RandomIDs(n, rng), nil)
		if err != nil {
			return nil, err
		}
		crWorst, err := election.Run(election.ChangRoberts, election.DescendingIDs(n), nil)
		if err != nil {
			return nil, err
		}
		dkrWorst, err := election.Run(election.DolevKlaweRodeh, election.DescendingIDs(n), nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtInt(n), fmtInt(crRandom.Stats.Messages), fmtInt(crWorst.Stats.Messages),
			fmtInt(dkrWorst.Stats.Messages),
			fmtFloat(float64(dkrWorst.Stats.Messages)/(float64(n)*math.Log2(float64(n)))))
	}
	t.Notes = append(t.Notes, "Chang–Roberts degrades quadratically on descending identifiers; DKR stays within 2n(log n + 1) + 2n")
	return t, nil
}

// ExperimentE10 measures the Section 8 transformation: a TM with time t(n)
// becomes a ring algorithm with at most t(n)·⌈log|Q|⌉ (+ framing) bits.
func ExperimentE10(sizes []int) (*Table, error) {
	t := &Table{
		ID:         "E10",
		Title:      "TM → ring transformation (Section 8)",
		PaperClaim: "a TM with time t(n) yields a ring algorithm with BIT(n) ≤ t(n)·log|Q|",
		Columns:    []string{"machine", "n", "TM steps t(n)", "ring bits", "bound t(n)(⌈log|Q|⌉+1)+2n", "bits/steps"},
	}
	type workload struct {
		machine  *tm.Machine
		language lang.Language
	}
	workloads := []workload{
		{machine: tm.NewZeroesOnesMachine(), language: lang.NewAnBn()},
		{machine: tm.NewPalindromeMachine(), language: lang.NewPalindrome()},
	}
	for _, wl := range workloads {
		rec, err := tm.NewRingRecognizer(wl.machine, wl.language)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(DefaultSeed + int64(n)))
			word, actualN, err := lang.MemberOrSkip(wl.language, n, 4, rng)
			if err != nil {
				return nil, err
			}
			direct, err := wl.machine.Run([]rune(string(word)), 1<<24)
			if err != nil {
				return nil, err
			}
			res, err := core.Run(rec, word, core.RunOptions{})
			if err != nil {
				return nil, err
			}
			bound := direct.Steps*(rec.StateBits()+1) + 2*actualN
			t.AddRow(wl.machine.Name, fmtInt(actualN), fmtInt(direct.Steps), fmtInt(res.Stats.Bits),
				fmtInt(bound), fmtFloat(float64(res.Stats.Bits)/float64(direct.Steps)))
		}
	}
	t.Notes = append(t.Notes, "both example machines run in Θ(n²) steps, so the resulting ring algorithms sit at Θ(n²) bits — consistent with E3's lower bound for comparison-style languages")
	return t, nil
}
