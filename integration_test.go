package ringlang_test

// End-to-end integration tests across subsystems: election feeding
// recognition, the TM transformation feeding the ring engines, and the trace
// analyses applied to full runs. These mirror the runnable examples but
// assert their outcomes.

import (
	"math/rand"
	"testing"

	"ringlang/internal/core"
	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
	"ringlang/internal/tm"
	"ringlang/internal/trace"
)

// rotateToLeader re-reads the ring pattern starting at the elected leader,
// which is how the paper's model defines the recognized word.
func rotateToLeader(word lang.Word, leader int) lang.Word {
	out := make(lang.Word, 0, len(word))
	out = append(out, word[leader:]...)
	out = append(out, word[:leader]...)
	return out
}

func TestIntegrationElectionThenRecognition(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	const n = 36
	protocols := []election.Protocol{election.ChangRoberts, election.DolevKlaweRodeh, election.HirschbergSinclair}
	for _, protocol := range protocols {
		ids := election.RandomIDs(n, rng)
		outcome, err := election.Run(protocol, ids, nil)
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		// The elected processor becomes the leader; the pattern is read from it.
		base, _ := lang.NewLg(lang.GrowthN15).GenerateMember(n, rng)
		word := rotateToLeader(base, outcome.WinnerIndex)
		rec := core.NewLgRecognizer(lang.NewLg(lang.GrowthN15))
		res, err := core.Run(rec, word, core.RunOptions{})
		if err != nil {
			t.Fatalf("%s: recognition: %v", protocol, err)
		}
		want := ring.VerdictReject
		if rec.Language().Contains(word) {
			want = ring.VerdictAccept
		}
		if res.Verdict != want {
			t.Errorf("%s: verdict %v, membership says %v", protocol, res.Verdict, want)
		}
	}
}

func TestIntegrationTMPipelineAcrossEngines(t *testing.T) {
	rec, err := tm.NewRingRecognizer(tm.NewZeroesOnesMachine(), lang.NewAnBn())
	if err != nil {
		t.Fatal(err)
	}
	random, err := ring.NewEngineByName("random", 13)
	if err != nil {
		t.Fatal(err)
	}
	engines := []ring.Engine{
		ring.NewSequentialEngine(),
		ring.NewShardedEngineWorkers(2),
		random,
	}
	words := []string{"0011", "000111", "0101", "0001110"}
	for _, engine := range engines {
		for _, s := range words {
			word := lang.WordFromString(s)
			res, err := core.Run(rec, word, core.RunOptions{Engine: engine})
			if err != nil {
				t.Fatalf("%s on %q: %v", engine.Name(), s, err)
			}
			want := ring.VerdictReject
			if lang.NewAnBn().Contains(word) {
				want = ring.VerdictAccept
			}
			if res.Verdict != want {
				t.Errorf("%s on %q: verdict %v, want %v", engine.Name(), s, res.Verdict, want)
			}
		}
	}
}

func TestIntegrationTraceReportOnFullRun(t *testing.T) {
	rec := core.NewThreeCounters()
	word := lang.WordFromString("000000111111222222")
	res, err := core.Run(rec, word, core.RunOptions{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]string, len(word))
	for i, letter := range word {
		inputs[i] = string(letter)
	}
	report, err := trace.BuildReport(res, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != ring.VerdictAccept {
		t.Errorf("verdict = %v", report.Verdict)
	}
	if !report.Token.IsToken {
		t.Error("the single-pass recognizer must satisfy the token property")
	}
	if report.Passes != 1 {
		t.Errorf("passes = %d, want 1", report.Passes)
	}
	if report.InfoStates.MaxMultiplicity > 3 {
		// Theorem 4's structure: with distinct counters almost every
		// processor ends in its own information state (identical letters can
		// coincide only within a letter block boundary).
		t.Errorf("unexpectedly high information-state multiplicity %d", report.InfoStates.MaxMultiplicity)
	}
	if len(report.Links) != len(word) {
		t.Errorf("expected %d links, got %d", len(word), len(report.Links))
	}
}

func TestIntegrationLineSimulationPreservesLanguage(t *testing.T) {
	inner := core.NewCountBackward(lang.NewPerfectSquareLength())
	sim, err := core.NewLineSimulation(inner)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(202))
	for _, n := range []int{4, 9, 16, 24, 25, 49, 50} {
		word := lang.RandomWord(inner.Language().Alphabet(), n, rng)
		for _, engine := range []ring.Engine{ring.NewSequentialEngine(), ring.NewShardedEngineWorkers(3)} {
			direct, err := core.Run(inner, word, core.RunOptions{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			simulated, err := core.Run(sim, word, core.RunOptions{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if direct.Verdict != simulated.Verdict {
				t.Errorf("n=%d on %s: simulation changed the verdict", n, engine.Name())
			}
		}
	}
}
