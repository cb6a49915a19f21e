package election

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ringlang/internal/ring"
)

func maxIndex(ids []uint64) int {
	best := 0
	for i, id := range ids {
		if id > ids[best] {
			best = i
		}
	}
	return best
}

func TestChangRobertsElectsMaxID(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 8, 50, 200} {
		ids := RandomIDs(n, rng)
		out, err := Run(ChangRoberts, ids, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.WinnerIndex != maxIndex(ids) {
			t.Errorf("n=%d: Chang-Roberts elected index %d, want the maximum id at %d",
				n, out.WinnerIndex, maxIndex(ids))
		}
		if out.WinnerID != ids[out.WinnerIndex] {
			t.Errorf("n=%d: winner id mismatch", n)
		}
	}
}

func TestDKRElectsUniqueLeader(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 8, 50, 200, 500} {
		ids := RandomIDs(n, rng)
		out, err := Run(DolevKlaweRodeh, ids, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.WinnerIndex < 0 || out.WinnerIndex >= n {
			t.Errorf("n=%d: winner index %d out of range", n, out.WinnerIndex)
		}
	}
}

func TestDKRMessageComplexityIsNLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 64, 256, 1024} {
		ids := RandomIDs(n, rng)
		out, err := Run(DolevKlaweRodeh, ids, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(n)*(2*math.Log2(float64(n))+2) + 2*float64(n)
		if float64(out.Stats.Messages) > bound {
			t.Errorf("n=%d: DKR used %d messages, above the 2n(log n + 1) + 2n bound %.0f",
				n, out.Stats.Messages, bound)
		}
	}
}

func TestChangRobertsWorstAndBestCase(t *testing.T) {
	n := 128
	worst, err := Run(ChangRoberts, DescendingIDs(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := Run(ChangRoberts, AscendingIDs(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Worst case ≈ n²/2 candidate messages (+ n announcements); best case ≈ 2n.
	if worst.Stats.Messages < n*n/4 {
		t.Errorf("descending ids should be quadratic: %d messages for n=%d", worst.Stats.Messages, n)
	}
	if best.Stats.Messages > 3*n {
		t.Errorf("ascending ids should be linear: %d messages for n=%d", best.Stats.Messages, n)
	}
	if worst.Stats.Messages <= best.Stats.Messages {
		t.Error("worst case should cost more than best case")
	}
}

func TestDKRBeatsChangRobertsWorstCase(t *testing.T) {
	n := 256
	cr, err := Run(ChangRoberts, DescendingIDs(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	dkr, err := Run(DolevKlaweRodeh, DescendingIDs(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dkr.Stats.Messages >= cr.Stats.Messages {
		t.Errorf("DKR (%d msgs) should beat Chang-Roberts (%d msgs) on the adversarial ring",
			dkr.Stats.Messages, cr.Stats.Messages)
	}
}

// TestElectionOnShardedWorkers runs the unidirectional protocols with their
// processors racing on three sharded workers.
func TestElectionOnShardedWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ids := RandomIDs(40, rng)
	for _, p := range []Protocol{ChangRoberts, DolevKlaweRodeh} {
		out, err := Run(p, ids, ring.NewShardedEngineWorkers(3))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if p == ChangRoberts && out.WinnerIndex != maxIndex(ids) {
			t.Errorf("sharded Chang-Roberts elected %d, want %d", out.WinnerIndex, maxIndex(ids))
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(ChangRoberts, nil, nil); !errors.Is(err, ring.ErrNoProcessors) {
		t.Errorf("err = %v, want ErrNoProcessors", err)
	}
	if _, err := Run(ChangRoberts, []uint64{3, 5, 3}, nil); !errors.Is(err, ErrDuplicateIDs) {
		t.Errorf("err = %v, want ErrDuplicateIDs", err)
	}
	if _, err := Run(Protocol(99), []uint64{1, 2}, nil); err == nil {
		t.Error("expected error for unknown protocol")
	}
}

func TestWorkloadGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := RandomIDs(100, rng)
	seen := make(map[uint64]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatal("RandomIDs produced a duplicate")
		}
		seen[id] = true
	}
	asc := AscendingIDs(5)
	desc := DescendingIDs(5)
	for i := 1; i < 5; i++ {
		if asc[i] <= asc[i-1] {
			t.Error("AscendingIDs not ascending")
		}
		if desc[i] >= desc[i-1] {
			t.Error("DescendingIDs not descending")
		}
	}
}

func TestProtocolString(t *testing.T) {
	if ChangRoberts.String() == "" || DolevKlaweRodeh.String() == "" || Protocol(0).String() != "unknown" {
		t.Error("Protocol.String misbehaves")
	}
}
