package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// BenchmarkServedTokenRun times the run a served cold word costs below the
// pool: core.Run on one ring.RunState and one NodeReuse, under a live
// context, exactly as an exec worker calls it. The algorithms, sizes and
// schedules are the ones cold traffic is made of, and the words alternate
// members and non-members. It reports ns per letter, so the letter check,
// the node rebuild, the hand-off and the fold can be timed without a server.
func BenchmarkServedTokenRun(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, algo := range []string{"count", "three-counters", "majority", "balanced-counter"} {
		rec, err := NewRecognizerByName(algo, "")
		if err != nil {
			b.Fatal(err)
		}
		for _, sched := range []string{"sequential", "random"} {
			for _, n := range []int{1024, 8192} {
				words := servedWords(rec.Language(), n, 8, rand.New(rand.NewSource(int64(n))))
				b.Run(fmt.Sprintf("%s/%s/n=%d", algo, sched, n), func(b *testing.B) {
					engine, err := ring.NewEngineByName(sched, 11)
					if err != nil {
						b.Fatal(err)
					}
					opts := RunOptions{Engine: engine, State: ring.NewRunState(), Reuse: NewNodeReuse(), Ctx: ctx}
					for _, w := range words {
						if _, err := Run(rec, w, opts); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := Run(rec, words[i%len(words)], opts); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/letter")
				})
			}
		}
	}
}

// servedWords returns k words of n letters, members and non-members in
// turn where the language has them at that length.
func servedWords(l lang.Language, n, k int, rng *rand.Rand) []lang.Word {
	words := make([]lang.Word, 0, k)
	for i := 0; i < k; i++ {
		w, ok := l.GenerateMember(n, rng)
		if !ok || i%2 == 1 {
			w, ok = l.GenerateNonMember(n, rng)
		}
		if !ok {
			w = lang.RandomWord(l.Alphabet(), n, rng)
		}
		words = append(words, w)
	}
	return words
}
