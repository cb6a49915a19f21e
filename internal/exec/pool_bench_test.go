package exec

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// throughputWorkload is the n=1024 workload of the acceptance criteria: the
// three-counters recognizer on member words near 1024 letters (the language
// has no word of exactly that length; the generator lands on 1026).
func throughputWorkload(tb testing.TB, words int) (core.Recognizer, []Job) {
	tb.Helper()
	rec := core.NewThreeCounters()
	rng := rand.New(rand.NewSource(20260726))
	word, _, err := lang.MemberOrSkip(rec.Language(), 1024, 8, rng)
	if err != nil {
		tb.Fatal(err)
	}
	seq := ring.NewSequentialEngine()
	jobs := make([]Job, words)
	for i := range jobs {
		jobs[i] = Job{Rec: rec, Word: word, Engine: seq, Check: true}
	}
	return rec, jobs
}

// runSerial is the pre-batch per-run path: one core.Check per word, fresh
// engine state every time.
func runSerial(tb testing.TB, rec core.Recognizer, jobs []Job) {
	tb.Helper()
	for i := range jobs {
		if _, err := core.Check(rec, jobs[i].Word, core.RunOptions{}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBatchThroughput enforces the headline speedup: with at least four
// cores, the pooled batch must push at least 3× the words/sec of the
// serial per-run loop at n=1024. On smaller machines the parallel speedup
// cannot exist and the test skips.
func TestBatchThroughput(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("throughput floor needs >= 4 cores, have %d", cores)
	}
	if raceEnabled {
		t.Skip("timing test skipped under -race: instrumentation overhead, not the pool, dominates the ratio")
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	rec, jobs := throughputWorkload(t, 96)
	pool := NewPool(cores)
	defer pool.Close()

	// Warm both paths (page cache, pool state, scheduler buffers).
	runSerial(t, rec, jobs[:8])
	pool.RunBatchContext(context.Background(), jobs[:8])

	// Best of two measurements per path, to shrug off one-off scheduler or
	// GC hiccups on shared CI runners.
	timeIt := func(f func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for attempt := 0; attempt < 2; attempt++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serialDur := timeIt(func() { runSerial(t, rec, jobs) })
	pooledDur := timeIt(func() {
		for i, r := range pool.RunBatchContext(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
		}
	})

	ratio := float64(serialDur) / float64(pooledDur)
	t.Logf("n=%d words=%d cores=%d: serial %v, pooled %v, speedup %.2fx",
		len(jobs[0].Word), len(jobs), cores, serialDur, pooledDur, ratio)
	if ratio < 3.0 {
		t.Errorf("pooled batch is %.2fx serial, want >= 3x on %d cores", ratio, cores)
	}
}

// TestBatchAllocatesLessThanSerial pins the state-reuse payoff: per word at
// n=1024, the pooled path
// (reused stats, contexts and scheduler queues, plus the result snapshot)
// must allocate strictly less than the per-run path it replaces. The margin
// is the engine bookkeeping only — the algorithm's own message allocations
// dominate both sides identically — so the comparison is deterministic.
func TestBatchAllocatesLessThanSerial(t *testing.T) {
	const batch = 16
	rec, jobs := throughputWorkload(t, batch)
	serial := testing.AllocsPerRun(5, func() {
		runSerial(t, rec, jobs)
	}) / batch

	pool := NewPool(1)
	defer pool.Close()
	pool.RunBatchContext(context.Background(), jobs) // warm the worker state
	pooled := testing.AllocsPerRun(5, func() {
		for i, r := range pool.RunBatchContext(context.Background(), jobs) {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
		}
	}) / batch

	t.Logf("allocs/word at n=%d: serial=%.1f pooled=%.1f", len(jobs[0].Word), serial, pooled)
	if pooled >= serial {
		t.Errorf("pooled path allocates %.1f/word, serial %.1f/word — state reuse should win", pooled, serial)
	}
}

// BenchmarkRunBatch is the words/sec throughput benchmark of the acceptance
// criteria: serial per-run loop vs pooled RunBatchContext at n=1024, one
// word per op so ns/op is ns/word.
func BenchmarkRunBatch(b *testing.B) {
	rec, jobs := throughputWorkload(b, 64)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runSerial(b, rec, jobs[:1])
		}
	})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		pool := NewPool(workers)
		pool.RunBatchContext(context.Background(), jobs) // warm
		b.Run("pooled/workers="+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; {
				batch := jobs
				if rem := b.N - i; rem < len(batch) {
					batch = jobs[:rem]
				}
				for _, r := range pool.RunBatchContext(context.Background(), batch) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				i += len(batch)
			}
		})
		defer pool.Close()
	}
}

// itoa avoids importing strconv for two benchmark labels.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
