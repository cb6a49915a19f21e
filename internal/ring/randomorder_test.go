package ring

import (
	"errors"
	"testing"
)

func TestRandomOrderEngineTokenRing(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		eng := engineNamed("random", seed)
		res, err := eng.Run(Config{RequireVerdict: true}, tokenNodes(12))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Verdict != VerdictAccept || res.Stats.Messages != 12 || res.Stats.Bits != 12 {
			t.Errorf("seed %d: verdict=%v messages=%d bits=%d", seed, res.Verdict, res.Stats.Messages, res.Stats.Bits)
		}
	}
}

func TestRandomOrderEngineBidirectional(t *testing.T) {
	n := 7
	for seed := int64(1); seed < 6; seed++ {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &bounceNode{leader: i == LeaderIndex}
		}
		res, err := engineNamed("random", seed).Run(Config{Mode: Bidirectional, RequireVerdict: true}, nodes)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Verdict != VerdictAccept || res.Stats.Messages != 4 {
			t.Errorf("seed %d: verdict=%v messages=%d", seed, res.Verdict, res.Stats.Messages)
		}
	}
}

func TestRandomOrderEngineQuiescenceAndGuards(t *testing.T) {
	nodes := make([]Node, 5)
	for i := range nodes {
		nodes[i] = &floodOnceNode{}
	}
	res, err := engineNamed("random", 3).Run(Config{Initiators: AllProcessors}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictNone || res.Stats.Messages != 5 {
		t.Errorf("verdict=%v messages=%d", res.Verdict, res.Stats.Messages)
	}

	loopNodes := make([]Node, 4)
	for i := range loopNodes {
		loopNodes[i] = &loopForeverNode{leader: i == LeaderIndex}
	}
	if _, err := engineNamed("random", 3).Run(Config{MaxMessages: 50}, loopNodes); !errors.Is(err, ErrMessageBudgetExceeded) {
		t.Errorf("err = %v, want ErrMessageBudgetExceeded", err)
	}
	if _, err := engineNamed("random", 3).Run(Config{}, nil); !errors.Is(err, ErrNoProcessors) {
		t.Errorf("err = %v, want ErrNoProcessors", err)
	}
	if eng := engineNamed("random", 7); eng.Name() == "" {
		t.Error("Name should be non-empty")
	}
}

func TestRandomOrderMatchesSequentialAccounting(t *testing.T) {
	// For deterministic single-token algorithms the delivery order cannot
	// change anything; accounting must match the sequential engine exactly.
	for _, n := range []int{3, 9, 21} {
		nodes1 := make([]Node, n)
		nodes2 := make([]Node, n)
		for i := range nodes1 {
			nodes1[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
			nodes2[i] = &incrementNode{leader: i == LeaderIndex, want: uint64(n)}
		}
		seq, err := NewSequentialEngine().Run(Config{RequireVerdict: true}, nodes1)
		if err != nil {
			t.Fatal(err)
		}
		random, err := engineNamed("random", int64(n)).Run(Config{RequireVerdict: true}, nodes2)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Stats.Bits != random.Stats.Bits || seq.Verdict != random.Verdict {
			t.Errorf("n=%d: accounting mismatch", n)
		}
	}
}
