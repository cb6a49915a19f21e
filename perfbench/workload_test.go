package main

import (
	"bytes"
	"fmt"
	"testing"
)

// stream renders a workload's first requests, warm-up included, as bytes:
// each request's path and body.
func stream(t *testing.T, workload string, seed int64, timed int) []byte {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	write := func(r request) {
		fmt.Fprintf(&b, "%s %s\n", r.path, r.body())
	}
	for _, r := range g.warmup() {
		write(r)
	}
	for i := 0; i < timed; i++ {
		write(g.next())
	}
	return b.Bytes()
}

func TestSameSeedGivesIdenticalStream(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			a, b := stream(t, w, 7, 200), stream(t, w, 7, 200)
			if !bytes.Equal(a, b) {
				t.Fatalf("two streams of %s under seed 7 differ", w)
			}
		})
	}
}

func TestOtherSeedGivesOtherStream(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			if bytes.Equal(stream(t, w, 7, 200), stream(t, w, 8, 200)) {
				t.Fatalf("%s gives the same stream under seeds 7 and 8", w)
			}
		})
	}
}

// TestWorkloadShapes pins the input properties each workload exists for.
func TestWorkloadShapes(t *testing.T) {
	share := func(w string) shares {
		g, err := newGenerator(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		warm := g.warmup()
		var timed []answered
		for i := 0; i < 300; i++ {
			timed = append(timed, answered{req: g.next()})
		}
		return measureShares(warm, timed)
	}
	if s := share(hotRecognize); s.Repeat != 1 {
		t.Errorf("hot-recognize repeat share %v, want 1: every timed word is a warm-up word", s.Repeat)
	}
	if s := share(coldBatch); s.Repeat != 0 || s.PrefixFamily != 0 {
		t.Errorf("cold-batch shares %+v, want no repeats and no 7/8-prefix families", s)
	}
}

// TestTracedColdBatchIsBalanced pins the traced cold-batch replay to one
// request of every (algorithm, size, sequential or random) stratum, whatever
// the seed.
func TestTracedColdBatchIsBalanced(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g, err := newGenerator(coldBatch, seed)
		if err != nil {
			t.Fatal(err)
		}
		g.warmup()
		reqs := tracedStream(g)
		if want := len(coldAlgorithms) * len(coldSizes) * 2; len(reqs) != want {
			t.Fatalf("seed %d: %d traced requests, want %d", seed, len(reqs), want)
		}
		perSize := make(map[int]int)
		perAlgo := make(map[string]int)
		sequential := 0
		for _, r := range reqs {
			perSize[len(r.words[0])]++
			perAlgo[r.algo]++
			if r.sched.name == "sequential" {
				sequential++
			}
		}
		for _, n := range coldSizes {
			if perSize[n] != 2*len(coldAlgorithms) {
				t.Errorf("seed %d: %d requests of %d letters, want %d", seed, perSize[n], n, 2*len(coldAlgorithms))
			}
		}
		for _, a := range coldAlgorithms {
			if perAlgo[a] != 2*len(coldSizes) {
				t.Errorf("seed %d: %d %s requests, want %d", seed, perAlgo[a], a, 2*len(coldSizes))
			}
		}
		if sequential != len(reqs)/2 {
			t.Errorf("seed %d: %d sequential requests of %d, want half", seed, sequential, len(reqs))
		}
	}
}
