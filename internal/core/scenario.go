package core

import (
	"fmt"

	"ringlang/internal/election"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// This file composes the two halves of the paper's model that the rest of
// the repository keeps separate: recognition assumes a distinguished leader
// at position 0, and internal/election is how an anonymous-but-identified
// ring produces one. ElectThenRecognize runs them back to back under one
// engine, so the leader assumption becomes a measured bit/message overhead
// instead of a free axiom — and so the fault schedules stress the whole
// stack, election included, not just the recognition phase.

// ElectionOverhead is the cost of establishing the leader before
// recognition ran.
type ElectionOverhead struct {
	// Protocol is the election protocol that ran.
	Protocol string
	// WinnerIndex is the elected processor's position on the original ring;
	// WinnerID is the identifier it announced.
	WinnerIndex int
	WinnerID    uint64
	// Bits and Messages are the election phase's totals — the price of the
	// leader the recognition phase gets for free.
	Bits     int
	Messages int
	// Faults is the election phase's fault accounting; nil under reliable
	// schedules.
	Faults *ring.FaultReport
}

// ScenarioResult is the outcome of one elect-then-recognize composition.
type ScenarioResult struct {
	// Election is the leader-establishment phase's report.
	Election ElectionOverhead
	// Rotated is the word as the recognition phase saw it: the original
	// ring relabelled so the elected processor sits at the leader position.
	Rotated lang.Word
	// Recognition is the recognition phase's result (verdict, stats, and —
	// under a fault schedule — fault accounting).
	Recognition *ring.Result
}

// ElectThenRecognize elects a leader with protocol p on a ring labelled with
// word, then runs the recognizer on the same ring with the winner as leader,
// under the options' engine for both phases. Since the recognition layer
// fixes the leader at index 0, the ring is rotated so the winner sits there.
// In the leaderless model the ring only defines a circular pattern; the word
// recognition decides is the pattern read from whoever won, so callers must
// judge the verdict against Rotated, not against word.
//
// ids are the processors' election identifiers, one per letter (for
// example election.RandomIDs with a seeded generator, which keeps the
// composition deterministic per seed).
//
// Under an engine whose delivery guarantee is weaker than the algorithms
// tolerate, both phases are hardened exactly as far as possible rather than
// refused: at-least-once delivery wraps election and recognition with the
// alternating-bit dedup layer (unless the recognizer already tolerates it,
// or opts.AllowFaults asks for the raw faulty run). Crash-prone delivery
// cannot be absorbed by a wrapper and follows opts.AllowFaults.
func ElectThenRecognize(p election.Protocol, rec Recognizer, word lang.Word, ids []uint64, opts RunOptions) (*ScenarioResult, error) {
	if len(word) == 0 {
		return nil, ErrEmptyWord
	}
	if len(ids) != len(word) {
		return nil, fmt.Errorf("core: scenario: %d ids for %d letters", len(ids), len(word))
	}
	engine := opts.engine()

	guarantee := ring.EngineDeliveryGuarantee(engine)
	dedup := guarantee == ring.AtLeastOnce && !opts.AllowFaults
	outcome, err := election.RunWith(p, ids, election.RunOptions{
		Engine:      engine,
		Dedup:       dedup,
		AllowFaults: opts.AllowFaults,
	})
	if err != nil {
		return nil, fmt.Errorf("core: scenario: elect: %w", err)
	}

	// Rotate the ring so the winner holds the leader position: processor i
	// of the recognition ring is processor (winner + i) mod n of the
	// original one.
	w := outcome.WinnerIndex
	rotated := make(lang.Word, 0, len(word))
	rotated = append(rotated, word[w:]...)
	rotated = append(rotated, word[:w]...)

	recRun := rec
	if dedup && !Tolerates(rec, guarantee) {
		recRun = WithDedup(rec)
	}
	recOpts := opts
	recOpts.Engine = engine
	res, err := Run(recRun, rotated, recOpts)
	if err != nil {
		return nil, fmt.Errorf("core: scenario: recognize after %s: %w", p, err)
	}
	return &ScenarioResult{
		Election: ElectionOverhead{
			Protocol:    p.String(),
			WinnerIndex: w,
			WinnerID:    outcome.WinnerID,
			Bits:        outcome.Stats.Bits,
			Messages:    outcome.Stats.Messages,
			Faults:      outcome.Faults,
		},
		Rotated:     rotated,
		Recognition: res,
	}, nil
}
