package election

import (
	"math"
	"math/rand"
	"testing"

	"ringlang/internal/ring"
)

func TestHirschbergSinclairElectsMaxID(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 5, 16, 64, 200} {
		ids := RandomIDs(n, rng)
		out, err := Run(HirschbergSinclair, ids, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.WinnerIndex != maxIndex(ids) {
			t.Errorf("n=%d: elected index %d, want max id index %d", n, out.WinnerIndex, maxIndex(ids))
		}
	}
}

func TestHirschbergSinclairMessageComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{32, 128, 512} {
		ids := RandomIDs(n, rng)
		out, err := Run(HirschbergSinclair, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Classic bound: ≤ 8n(1 + log n) probe/reply messages plus the
		// announcement round.
		bound := 8*float64(n)*(1+math.Log2(float64(n))) + 2*float64(n)
		if float64(out.Stats.Messages) > bound {
			t.Errorf("n=%d: %d messages exceed the 8n(1+log n) bound %.0f", n, out.Stats.Messages, bound)
		}
	}
}

func TestHirschbergSinclairWorstCaseArrangements(t *testing.T) {
	for _, ids := range [][]uint64{AscendingIDs(100), DescendingIDs(100)} {
		out, err := Run(HirschbergSinclair, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.WinnerID != 100 {
			t.Errorf("winner id = %d, want 100", out.WinnerID)
		}
	}
}

// TestHirschbergSinclairOnConcurrentAndRandomEngines elects with the
// processors racing on two sharded workers and under a seeded random order.
func TestHirschbergSinclairOnConcurrentAndRandomEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ids := RandomIDs(32, rng)
	engines := []ring.Engine{ring.NewShardedEngineWorkers(2), mustEngine(t, "random", 7)}
	for _, engine := range engines {
		out, err := Run(HirschbergSinclair, ids, engine)
		if err != nil {
			t.Fatalf("%s: %v", engine.Name(), err)
		}
		if out.WinnerIndex != maxIndex(ids) {
			t.Errorf("%s: elected %d, want %d", engine.Name(), out.WinnerIndex, maxIndex(ids))
		}
	}
}

func TestProtocolModes(t *testing.T) {
	if ChangRoberts.Mode() != ring.Unidirectional || DolevKlaweRodeh.Mode() != ring.Unidirectional {
		t.Error("unidirectional protocols report the wrong mode")
	}
	if HirschbergSinclair.Mode() != ring.Bidirectional {
		t.Error("Hirschberg-Sinclair must be bidirectional")
	}
	if HirschbergSinclair.String() == "" {
		t.Error("missing String for HirschbergSinclair")
	}
}
