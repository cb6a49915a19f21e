package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"ringlang/internal/core"
	"ringlang/internal/lang"
)

// The workloads. Each is a seeded generator of HTTP requests; ringserve sees
// only the generated requests, never the seed.
const (
	hotRecognize = "hot-recognize"
	coldBatch    = "cold-batch"
)

var workloadNames = []string{hotRecognize, coldBatch}

const (
	recognizePath = "/v1/recognize"
	batchPath     = "/v1/batch"
)

// Workload shape constants, fixed so the request stream depends on the seed
// alone.
const (
	hotDistinct = 1024 // distinct words behind hot-recognize's Zipf draws
	hotMinLen   = 64
	hotMaxLen   = 1024
	hotZipfS    = 1.1

	coldWordsPerBatch = 32
)

var (
	hotAlgorithms  = []string{"three-counters", "count", "majority"}
	coldAlgorithms = []string{"count", "three-counters", "majority", "balanced-counter"}
	coldSizes      = []int{1024, 2048, 4096, 8192}
	// coldSchedules is sequential plus random under four fixed seeds: with
	// the four algorithms, 20 client keys and so 20 per-key pools.
	coldSchedules = []schedule{{"sequential", 0}, {"random", 11}, {"random", 22}, {"random", 33}, {"random", 44}}
	// coldBlock is the length of one cold-batch block: every (algorithm,
	// schedule, size) triple once.
	coldBlock = len(coldAlgorithms) * len(coldSchedules) * len(coldSizes)
)

type schedule struct {
	name string
	seed int64
}

// request is one generated HTTP call and what is needed to check its answer.
type request struct {
	path  string
	algo  string
	sched schedule
	words []string
}

// body renders the request's JSON body.
func (r *request) body() []byte {
	v := struct {
		Algorithm string   `json:"algorithm"`
		Schedule  string   `json:"schedule"`
		Seed      int64    `json:"seed,omitempty"`
		Word      string   `json:"word,omitempty"`
		Words     []string `json:"words,omitempty"`
	}{Algorithm: r.algo, Schedule: r.sched.name, Seed: r.sched.seed}
	if r.path == recognizePath {
		v.Word = r.words[0]
	} else {
		v.Words = r.words
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// generator produces a workload's requests in a fixed order from its seed:
// first the set-up (warm-up) requests, then the timed phase's stream, one
// request per next call.
type generator struct {
	workload string
	rng      *rand.Rand
	langs    map[string]lang.Language // each algorithm's language
	seen     map[uint64]bool          // every word generated so far, by algorithm

	// block holds the rest of a seeded permutation of cold-batch's block, so
	// every seed sends the same mix; only the order and the letters differ.
	block []int

	// hot-recognize: hot[r] is the word of Zipf rank r.
	hot  []request
	zipf *rand.Zipf
}

func newGenerator(workload string, seed int64) (*generator, error) {
	if !slices.Contains(workloadNames, workload) {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", workload, workloadNames)
	}
	g := &generator{
		workload: workload,
		rng:      rand.New(rand.NewSource(seed)),
		langs:    make(map[string]lang.Language),
		seen:     make(map[uint64]bool),
	}
	for _, algo := range slices.Concat(hotAlgorithms, coldAlgorithms) {
		rec, err := core.NewRecognizerByName(algo, "")
		if err != nil {
			return nil, err
		}
		g.langs[algo] = rec.Language()
	}
	if workload == hotRecognize {
		// A rank's algorithm and length are fixed (lengths scattered over
		// the range by a stride coprime with its size), so every seed puts
		// the same work behind each popularity rank.
		for r := 0; r < hotDistinct; r++ {
			algo := hotAlgorithms[r%len(hotAlgorithms)]
			n := hotMinLen + r*577%(hotMaxLen-hotMinLen+1)
			w := g.word(algo, n, r/len(hotAlgorithms)%2 == 0)
			for w == "" {
				w = g.word(algo, n, false)
			}
			g.hot = append(g.hot, request{path: recognizePath, algo: algo, sched: schedule{"sequential", 0}, words: []string{w}})
		}
		g.zipf = rand.NewZipf(g.rng, hotZipfS, 1, hotDistinct-1)
	}
	return g, nil
}

// warmup returns the set-up requests: they load the memo cache
// (hot-recognize) or start every per-key pool (cold-batch).
func (g *generator) warmup() []request {
	if g.workload == hotRecognize {
		return g.hot
	}
	out := make([]request, 0, len(coldAlgorithms)*len(coldSchedules))
	for _, algo := range coldAlgorithms {
		for _, s := range coldSchedules {
			out = append(out, g.batch(algo, s, coldSizes[0]))
		}
	}
	return out
}

// next returns the timed phase's next request.
func (g *generator) next() request {
	if g.workload == hotRecognize {
		return g.hot[g.zipf.Uint64()]
	}
	if len(g.block) == 0 {
		g.block = g.rng.Perm(coldBlock)
	}
	i := g.block[0]
	g.block = g.block[1:]
	algo := coldAlgorithms[i%len(coldAlgorithms)]
	i /= len(coldAlgorithms)
	return g.batch(algo, coldSchedules[i%len(coldSchedules)], coldSizes[i/len(coldSchedules)])
}

// batch builds one cold-batch request: never-repeated words of one size,
// alternating language members and non-members.
func (g *generator) batch(algo string, s schedule, n int) request {
	words := make([]string, 0, coldWordsPerBatch)
	for len(words) < coldWordsPerBatch {
		if w := g.word(algo, n, len(words)%2 == 0); w != "" {
			words = append(words, w)
		}
	}
	return request{path: batchPath, algo: algo, sched: s, words: words}
}

// word draws a word of n letters for algo with the language's own
// generators: a member with member set, otherwise a non-member (for Dyck and
// 0^k1^k2^k, a member with one letter changed). It returns "" when the draw
// repeats a word generated before, and the caller draws again. count decides
// a length language, so its words are random over its alphabet. 0^k1^k2^k
// has at most one member per length and its generators draw few distinct
// non-members, so apart from its member its words are a non-member with a
// sixteenth of the letters redrawn.
func (g *generator) word(algo string, n int, member bool) string {
	l := g.langs[algo]
	var (
		w  lang.Word
		ok bool
	)
	switch {
	case algo == "count":
		w, ok = lang.RandomWord(l.Alphabet(), n, g.rng), true
	case member:
		w, ok = l.GenerateMember(n, g.rng)
	}
	if !ok {
		w, ok = l.GenerateNonMember(n, g.rng)
	}
	if ok && algo == "three-counters" && !l.Contains(w) {
		a := l.Alphabet()
		for i := range w {
			if g.rng.Intn(16) == 0 {
				w[i] = a[g.rng.Intn(len(a))]
			}
		}
	}
	if !ok {
		return ""
	}
	s := w.String()
	if !g.remember(algo, s) {
		return ""
	}
	return s
}

// remember records a generated word and reports whether it is new.
func (g *generator) remember(algo, word string) bool {
	h := fnv.New64a()
	h.Write([]byte(algo))
	h.Write([]byte{0})
	h.Write([]byte(word))
	k := h.Sum64()
	if g.seen[k] {
		return false
	}
	g.seen[k] = true
	return true
}
