package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

func randomDigits(n int, rng *rand.Rand) lang.Word {
	w := make(lang.Word, n)
	for i := range w {
		w[i] = rune('0' + rng.Intn(10))
	}
	return w
}

func TestComputeAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kinds := []AggregateKind{AggregateMax, AggregateSum, AggregateCountNonZero}
	for _, kind := range kinds {
		for _, n := range []int{1, 2, 9, 50, 333} {
			word := randomDigits(n, rng)
			want, err := ReferenceAggregate(kind, word)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ComputeAggregate(kind, word, nil)
			if err != nil {
				t.Fatalf("%s n=%d: %v", kind, n, err)
			}
			if got.Value != want {
				t.Errorf("%s(%q) = %d, want %d", kind, word.String(), got.Value, want)
			}
			if got.Stats.Messages != n {
				t.Errorf("%s n=%d: messages = %d, want one pass", kind, n, got.Stats.Messages)
			}
		}
	}
}

func TestComputeAggregateOnAllEngines(t *testing.T) {
	word := lang.WordFromString("3141592653589793")
	engines := []ring.Engine{nil, ring.NewShardedEngineWorkers(2), ring.NewRandomOrderEngine(5)}
	for _, engine := range engines {
		res, err := ComputeAggregate(AggregateSum, word, engine)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 3+1+4+1+5+9+2+6+5+3+5+8+9+7+9+3 {
			t.Errorf("sum = %d", res.Value)
		}
	}
}

func TestComputeAggregateBitComplexityIsNLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{128, 512, 2048} {
		word := randomDigits(n, rng)
		res, err := ComputeAggregate(AggregateSum, word, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sum ≤ 9n, so every message is O(log n) bits and the total is
		// O(n log n).
		upper := float64(n) * (3*math.Log2(float64(9*n)) + 4)
		if float64(res.Stats.Bits) > upper {
			t.Errorf("n=%d: %d bits exceeds the n·log(9n) envelope %.0f", n, res.Stats.Bits, upper)
		}
	}
}

func TestComputeAggregateValidation(t *testing.T) {
	if _, err := ComputeAggregate(AggregateMax, nil, nil); !errors.Is(err, ErrEmptyWord) {
		t.Errorf("err = %v, want ErrEmptyWord", err)
	}
	if _, err := ComputeAggregate(AggregateMax, lang.WordFromString("12a"), nil); !errors.Is(err, ErrNotADigit) {
		t.Errorf("err = %v, want ErrNotADigit", err)
	}
	if _, err := ReferenceAggregate(AggregateMax, lang.WordFromString("x")); !errors.Is(err, ErrNotADigit) {
		t.Errorf("reference err = %v, want ErrNotADigit", err)
	}
	if _, err := ReferenceAggregate(AggregateKind(99), lang.WordFromString("1")); err == nil {
		t.Error("expected error for unknown kind")
	}
	if AggregateMax.String() == "" || AggregateKind(99).String() != "unknown" {
		t.Error("AggregateKind.String misbehaves")
	}
}

func TestQuickAggregateSumMatchesReference(t *testing.T) {
	f := func(digits []uint8) bool {
		if len(digits) == 0 || len(digits) > 200 {
			return true
		}
		w := make(lang.Word, len(digits))
		for i, d := range digits {
			w[i] = rune('0' + int(d%10))
		}
		want, err := ReferenceAggregate(AggregateSum, w)
		if err != nil {
			return false
		}
		got, err := ComputeAggregate(AggregateSum, w, nil)
		return err == nil && got.Value == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
