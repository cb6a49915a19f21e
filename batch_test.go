package ringlang

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ringlang/internal/ring"
)

// TestRecognizeBatchMatchesRecognize pins the facade-level batch contract:
// Client.Batch returns, in word order, exactly the reports per-word
// Client.Recognize calls produce — for every schedule and worker count.
func TestRecognizeBatchMatchesRecognize(t *testing.T) {
	ctx := context.Background()
	words := []Word{
		WordFromString("001122"),
		WordFromString("010212"),
		WordFromString("000111222"),
		WordFromString("012"),
		WordFromString("001122001122"),
	}
	for _, sched := range []struct {
		name string
		opt  Option
	}{
		{"sequential", WithSchedule("")},
		{"round-robin", WithSchedule("round-robin")},
		{"random", WithSchedule("random")},
		// Two forced workers: the processors of these small rings still race
		// on real goroutines.
		{"sharded", WithEngine(ring.NewShardedEngineWorkers(2))},
	} {
		schedule := sched.name
		serial, err := NewClient("three-counters", "", sched.opt, WithSeed(9))
		if err != nil {
			t.Fatalf("schedule %q: %v", schedule, err)
		}
		want := make([]*Report, len(words))
		for i, w := range words {
			if want[i], err = serial.Recognize(ctx, w); err != nil {
				t.Fatalf("schedule %q word %q: %v", schedule, w.String(), err)
			}
		}
		serial.Close()
		for _, workers := range []int{0, 1, 3} {
			client, err := NewClient("three-counters", "", sched.opt, WithSeed(9), WithWorkers(workers))
			if err != nil {
				t.Fatalf("schedule %q workers=%d: %v", schedule, workers, err)
			}
			got := make([]*Report, len(words))
			for i, r := range client.Batch(ctx, words) {
				if r.Err != nil {
					t.Fatalf("schedule %q workers=%d word %d: %v", schedule, workers, i, r.Err)
				}
				got[i] = r.Report
			}
			client.Close()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("schedule %q workers=%d: batch reports differ from serial Recognize", schedule, workers)
			}
		}
	}
}

func TestRecognizeBatchErrors(t *testing.T) {
	if _, err := NewClient("no-such-algorithm", ""); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v", err)
	}
	client, err := NewClient("three-counters", "")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	results := client.Batch(ctx, []Word{WordFromString("001122"), nil})
	if results[0].Err != nil || results[1].Err == nil {
		t.Errorf("the failing word should fail alone at its own index: %+v", results)
	}
	if got := client.Batch(ctx, nil); len(got) != 0 {
		t.Errorf("empty batch = %v", got)
	}
}
