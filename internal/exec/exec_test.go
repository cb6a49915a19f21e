package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// statsEqual compares the externally observable accounting of two runs.
func statsEqual(a, b *ring.Stats) bool {
	if a.Processors != b.Processors || a.Messages != b.Messages ||
		a.Bits != b.Bits || a.MaxMessageBits != b.MaxMessageBits {
		return false
	}
	return reflect.DeepEqual(flattenPerLink(a), flattenPerLink(b))
}

func flattenPerLink(s *ring.Stats) map[[2]int]ring.LinkStats {
	out := make(map[[2]int]ring.LinkStats)
	for k, v := range s.PerLink() {
		out[k] = *v
	}
	return out
}

// TestPropertyBatchMatchesSerial is the batch-equivalence property: batch
// results must be bit-for-bit identical to serial core.Check across
// algorithms, schedules and worker counts. Run it with -race to cover the
// pool and the sharded engine's workers.
func TestPropertyBatchMatchesSerial(t *testing.T) {
	recs := []core.Recognizer{
		core.NewThreeCounters(),
		core.NewBalancedCounter(),
		core.NewCompareWcW(),
	}
	schedules := []struct {
		name string
		seed int64
		// pinned, when set, is the batch's engine instead of the one the
		// name resolves to; the serial baseline still resolves the name.
		pinned ring.Engine
	}{
		{"", 0, nil},
		{"sequential", 0, nil},
		{"random", 3, nil},
		{"random", 11, nil},
		{"round-robin", 0, nil},
		{"adversarial", 0, nil},
		// Two forced workers, so the batch's processors race on real
		// goroutines on these small rings; the serial "sharded" baseline
		// falls back to the FIFO loop there.
		{"sharded", 0, ring.NewShardedEngineWorkers(2)},
	}
	sizes := []int{3, 9, 21}
	// One pinned engine per schedule, shared by all of its jobs as a
	// long-lived caller would share it. The serial baseline runs the engine
	// the name resolves to; the unnamed schedule leaves core.Run to its
	// default.
	engines := make([]ring.Engine, len(schedules))
	serial := make([]ring.Engine, len(schedules))
	for i, s := range schedules {
		name := s.name
		if name == "" {
			name = "sequential"
		}
		e, err := ring.NewEngineByName(name, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		if s.name != "" {
			serial[i] = e
		}
		if s.pinned != nil {
			engines[i] = s.pinned
		}
	}

	// Build the job grid and the serial baseline.
	var jobs []Job
	var want []Result
	rng := rand.New(rand.NewSource(42))
	for _, rec := range recs {
		for _, n := range sizes {
			member, _, err := lang.MemberOrSkip(rec.Language(), n, 8, rng)
			if err != nil {
				t.Fatalf("%s: no member near %d: %v", rec.Name(), n, err)
			}
			words := []lang.Word{member}
			if nonMember, ok := rec.Language().GenerateNonMember(n, rng); ok {
				words = append(words, nonMember)
			}
			for _, word := range words {
				for si, s := range schedules {
					res, err := core.Check(rec, word, core.RunOptions{Engine: serial[si]})
					if err != nil {
						t.Fatalf("serial %s n=%d schedule=%q: %v", rec.Name(), n, s.name, err)
					}
					jobs = append(jobs, Job{Rec: rec, Word: word, Engine: engines[si], Check: true})
					want = append(want, Result{Verdict: res.Verdict, Stats: res.Stats.Clone()})
				}
			}
		}
	}

	for _, workers := range []int{1, 2, 4, 7} {
		pool := NewPool(workers)
		// Two batches per pool: the second exercises fully warmed state.
		for round := 0; round < 2; round++ {
			got := pool.RunBatchContext(context.Background(), jobs)
			if len(got) != len(jobs) {
				t.Fatalf("workers=%d: %d results for %d jobs", workers, len(got), len(jobs))
			}
			for i, g := range got {
				if g.Err != nil {
					t.Fatalf("workers=%d round=%d job %d (%s %q %q): %v",
						workers, round, i, jobs[i].Rec.Name(), jobs[i].Word.String(), jobs[i].Engine.Name(), g.Err)
				}
				if g.Verdict != want[i].Verdict {
					t.Errorf("workers=%d job %d: verdict %v, serial %v", workers, i, g.Verdict, want[i].Verdict)
				}
				if !statsEqual(g.Stats, want[i].Stats) {
					t.Errorf("workers=%d job %d (%s %q %q): batch stats %+v != serial %+v",
						workers, i, jobs[i].Rec.Name(), jobs[i].Word.String(), jobs[i].Engine.Name(),
						*g.Stats, *want[i].Stats)
				}
			}
		}
		pool.Close()
	}
}

// TestRunBatchResultsAreIndependent pins the snapshot semantics: results of
// one batch must not share per-link state with each other or with later
// batches run on the same (reused) worker state.
func TestRunBatchResultsAreIndependent(t *testing.T) {
	rec := core.NewThreeCounters()
	seq := ring.NewSequentialEngine()
	w1 := lang.WordFromString("012")
	w2 := lang.WordFromString("001122")
	pool := NewPool(1)
	defer pool.Close()

	first := pool.RunBatchContext(context.Background(), []Job{{Rec: rec, Word: w1, Engine: seq, Check: true}, {Rec: rec, Word: w2, Engine: seq, Check: true}})
	for i, r := range first {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	snapshot := flattenPerLink(first[0].Stats)
	// A second batch on the same worker reuses and resets the state; the
	// already-returned results must not change.
	pool.RunBatchContext(context.Background(), []Job{{Rec: rec, Word: w2, Engine: seq, Check: true}})
	if !reflect.DeepEqual(snapshot, flattenPerLink(first[0].Stats)) {
		t.Fatal("a later batch mutated an earlier result's stats")
	}
	if first[0].Stats.Bits == first[1].Stats.Bits {
		t.Fatal("distinct words produced identical bit totals; snapshotting is suspect")
	}
}

// TestRunBatchErrors checks that bad jobs fail in place without failing the
// batch: a job needs a recognizer, an engine and a non-empty word.
func TestRunBatchErrors(t *testing.T) {
	rec := core.NewThreeCounters()
	seq := ring.NewSequentialEngine()
	pool := NewPool(2)
	defer pool.Close()
	results := pool.RunBatchContext(context.Background(), []Job{
		{Rec: rec, Word: lang.WordFromString("012"), Engine: seq, Check: true},
		{Word: lang.WordFromString("012"), Engine: seq},
		{Rec: rec, Word: lang.WordFromString("012")},
		{Rec: rec, Word: nil, Engine: seq},
	})
	if results[0].Err != nil {
		t.Errorf("good job failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("job without recognizer did not error")
	}
	if results[2].Err == nil {
		t.Error("job without engine did not error")
	}
	if !errors.Is(results[3].Err, core.ErrEmptyWord) {
		t.Errorf("empty word error = %v, want core.ErrEmptyWord", results[3].Err)
	}
}

// TestRunBatchEmpty covers the degenerate batch.
func TestRunBatchEmpty(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	if got := pool.RunBatchContext(context.Background(), nil); len(got) != 0 {
		t.Fatalf("RunBatchContext(nil jobs) = %v", got)
	}
}

// TestLentAndKeptResults pins the lending contract on a one-worker pool,
// where every run reuses the same stats: a Result is exact inside its
// deliver callback, and the Results RunBatchContext returns still equal a
// cold core.Run's per-link stats after another batch of same-length words
// has overwritten the worker's state.
func TestLentAndKeptResults(t *testing.T) {
	rec := core.NewThreeCounters()
	a := []lang.Word{lang.WordFromString("000111222"), lang.WordFromString("012012012")}
	b := []lang.Word{lang.WordFromString("001122012"), lang.WordFromString("222111000")}
	pool := NewPool(1)
	defer pool.Close()
	random, err := ring.NewEngineByName("random", 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []ring.Engine{ring.NewSequentialEngine(), random} {
		jobs := func(words []lang.Word) []Job {
			out := make([]Job, len(words))
			for i, w := range words {
				out[i] = Job{Rec: rec, Word: w, Engine: eng}
			}
			return out
		}
		cold := make([]*ring.Stats, len(a))
		for i, w := range a {
			res, err := core.Run(rec, w, core.RunOptions{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			cold[i] = res.Stats
		}
		pool.RunEach(context.Background(), jobs(a), func(i int, r Result) {
			if r.Err != nil || !statsEqual(r.Stats, cold[i]) {
				t.Errorf("%s: lent result %d differs from a cold run inside deliver (err %v)", eng.Name(), i, r.Err)
			}
		})
		kept := pool.RunBatchContext(context.Background(), jobs(a))
		pool.RunBatchContext(context.Background(), jobs(b))
		for i, r := range kept {
			if r.Err != nil {
				t.Fatalf("%s: job %d: %v", eng.Name(), i, r.Err)
			}
			if !statsEqual(r.Stats, cold[i]) {
				t.Errorf("%s: kept result %d changed after a later batch: %+v, cold %+v", eng.Name(), i, *r.Stats, *cold[i])
			}
		}
	}
}
