package core

// Tests for the prefix-checkpoint path through core.Run. The load-bearing
// property is bit-identity: a run resumed from a cached prefix checkpoint
// must report exactly the verdict, totals and per-link stats of a cold run —
// for every prefix-extendable algorithm in the catalog, on every
// prefix-stable schedule, whether the cache hit is full or partial. The
// cache is a pure performance layer; any observable difference is a bug.

import (
	"math/rand"
	"testing"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// mustEqualResults fails the test unless warm reports exactly what cold did.
func mustEqualResults(t *testing.T, label string, cold, warm *ring.Result) {
	t.Helper()
	if warm.Verdict != cold.Verdict {
		t.Fatalf("%s: verdict %v, cold says %v", label, warm.Verdict, cold.Verdict)
	}
	if warm.Stats.Messages != cold.Stats.Messages || warm.Stats.Bits != cold.Stats.Bits ||
		warm.Stats.MaxMessageBits != cold.Stats.MaxMessageBits {
		t.Fatalf("%s: %d msgs/%d bits/max %d, cold %d msgs/%d bits/max %d",
			label, warm.Stats.Messages, warm.Stats.Bits, warm.Stats.MaxMessageBits,
			cold.Stats.Messages, cold.Stats.Bits, cold.Stats.MaxMessageBits)
	}
	coldLinks, warmLinks := cold.Stats.Links(), warm.Stats.Links()
	if len(coldLinks) != len(warmLinks) {
		t.Fatalf("%s: %d links, cold %d", label, len(warmLinks), len(coldLinks))
	}
	for i := range coldLinks {
		if coldLinks[i] != warmLinks[i] {
			t.Fatalf("%s: link %d = %+v, cold %+v", label, i, warmLinks[i], coldLinks[i])
		}
	}
}

// prefixSibling returns a word sharing exactly the first shared letters of
// word, with the tail resampled from the alphabet (forced to differ at the
// first tail position when the alphabet allows it).
func prefixSibling(word lang.Word, alphabet lang.Alphabet, shared int, rng *rand.Rand) lang.Word {
	sibling := append(lang.Word(nil), word[:shared]...)
	sibling = append(sibling, lang.RandomWord(alphabet, len(word)-shared, rng)...)
	if shared < len(word) {
		for _, l := range alphabet {
			if l != word[shared] {
				sibling[shared] = l
				break
			}
		}
	}
	return sibling
}

// TestPrefixCacheMatchesColdRunAcrossCatalog is the property the tentpole
// rests on: for every recognizer in the catalog and every prefix-stable
// schedule, runs through a PrefixCache — populating, fully resumed, and
// partially resumed via a diverging sibling word — are bit-identical to cold
// runs. Backward-direction recognizers must decline the cache (their
// executions share suffixes, not prefixes) and still answer correctly.
func TestPrefixCacheMatchesColdRunAcrossCatalog(t *testing.T) {
	var stable []string
	for _, name := range ring.ScheduleNames() {
		if ring.ScheduleIsPrefixStable(name) {
			stable = append(stable, name)
		}
	}
	if len(stable) == 0 {
		t.Fatal("no prefix-stable schedule in the catalog")
	}
	rng := rand.New(rand.NewSource(108))
	for _, rec := range allRecognizers(t) {
		alphabet := rec.Language().Alphabet()
		for _, schedule := range stable {
			for trial := 0; trial < 4; trial++ {
				n := 8 + rng.Intn(33)
				word := lang.RandomWord(alphabet, n, rng)
				sibling := prefixSibling(word, alphabet, n/2, rng)

				cold := func(w lang.Word) *ring.Result {
					res, err := Run(rec, w, RunOptions{Schedule: schedule})
					if err != nil {
						t.Fatalf("%s/%s cold on %q: %v", rec.Name(), schedule, w.String(), err)
					}
					return res
				}
				coldWord, coldSibling := cold(word), cold(sibling)

				cache := NewPrefixCache(1 << 22)
				warm := func(w lang.Word) *ring.Result {
					res, err := Run(rec, w, RunOptions{Schedule: schedule, Prefix: cache})
					if err != nil {
						t.Fatalf("%s/%s warm on %q: %v", rec.Name(), schedule, w.String(), err)
					}
					return res
				}
				label := rec.Name() + "/" + schedule
				mustEqualResults(t, label+" populate", coldWord, warm(word))
				mustEqualResults(t, label+" full resume", coldWord, warm(word))
				mustEqualResults(t, label+" sibling resume", coldSibling, warm(sibling))
				mustEqualResults(t, label+" sibling again", coldSibling, warm(sibling))

				if _, ok := rec.(PrefixExtendable); !ok {
					t.Fatalf("%s: every catalog recognizer should implement PrefixExtendable", rec.Name())
				}
				st := cache.Stats()
				extendable := rec.(PrefixExtendable).PrefixDeliveries(n, n) > 0
				if extendable && st.Hits+st.PartialHits == 0 {
					t.Fatalf("%s: no cache hits across warm runs (stats %+v)", label, st)
				}
				if !extendable && st.Hits+st.PartialHits+st.Misses != 0 {
					t.Fatalf("%s: backward algorithm touched the prefix cache (stats %+v)", label, st)
				}
			}
		}
	}
}

// TestPrefixCacheBypassedWhenUnusable pins the fallback gates: unstable
// schedules, trace recording and rings too small for any boundary must run
// cold without consulting the cache at all.
func TestPrefixCacheBypassedWhenUnusable(t *testing.T) {
	rec := NewMajority()
	word := lang.WordFromString("0110101101")
	for _, tc := range []struct {
		name string
		opts RunOptions
	}{
		{"random schedule", RunOptions{Schedule: "random", Seed: 7}},
		{"sharded schedule", RunOptions{Schedule: "sharded"}},
		{"adversarial schedule", RunOptions{Schedule: "adversarial"}},
		{"trace recording", RunOptions{Schedule: "sequential", RecordTrace: true}},
	} {
		cache := NewPrefixCache(1 << 20)
		opts := tc.opts
		opts.Prefix = cache
		cold, err := Run(rec, word, tc.opts)
		if err != nil {
			t.Fatalf("%s cold: %v", tc.name, err)
		}
		warm, err := Run(rec, word, opts)
		if err != nil {
			t.Fatalf("%s with cache: %v", tc.name, err)
		}
		if warm.Verdict != cold.Verdict || warm.Stats.Bits != cold.Stats.Bits {
			t.Fatalf("%s: cache changed the result", tc.name)
		}
		if st := cache.Stats(); st.Hits+st.PartialHits+st.Misses+uint64(st.Entries) != 0 {
			t.Fatalf("%s: cache was consulted (stats %+v)", tc.name, st)
		}
	}
	// A two-letter ring has no boundary of depth ≥ 2 below the full word and
	// must still answer; a one-letter ring has no usable prefix at all.
	for _, w := range []string{"01", "1"} {
		cache := NewPrefixCache(1 << 20)
		if _, err := Run(rec, lang.WordFromString(w), RunOptions{Schedule: "sequential", Prefix: cache}); err != nil {
			t.Fatalf("tiny ring %q with cache: %v", w, err)
		}
	}
}

// TestPrefixCacheSurvivesEviction forces the store through its bytes budget
// mid-workload and checks correctness is unaffected — an evicted checkpoint
// is a cache miss, never a wrong answer.
func TestPrefixCacheSurvivesEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	rec := NewMajority()
	alphabet := rec.Language().Alphabet()
	cache := NewPrefixCache(4 << 10) // a few checkpoints at most
	for trial := 0; trial < 40; trial++ {
		n := 16 + rng.Intn(17)
		word := lang.RandomWord(alphabet, n, rng)
		cold, err := Run(rec, word, RunOptions{Schedule: "sequential"})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(rec, word, RunOptions{Schedule: "sequential", Prefix: cache})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, "under eviction", cold, warm)
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("budget never forced an eviction (stats %+v); the test is not exercising eviction", cache.Stats())
	}
}

// TestPrefixRunStaysOnColdAllocFloor is the alloc regression guard for the
// resume hot path at the core.Run level (referenced by //ring:hotpath
// markers in prefix.go): once the deepest boundary is cached, a warm run
// with reused RunState must not allocate more than the same cold run —
// lookup is allocation-free and the capture plan is empty.
func TestPrefixRunStaysOnColdAllocFloor(t *testing.T) {
	const n = 4096
	rec := NewMajority()
	word := lang.RandomWord(rec.Language().Alphabet(), n, rand.New(rand.NewSource(110)))

	coldOpts := RunOptions{Schedule: "sequential", State: ring.NewRunState()}
	warmOpts := RunOptions{Schedule: "sequential", State: ring.NewRunState(), Prefix: NewPrefixCache(1 << 22)}
	for _, opts := range []RunOptions{coldOpts, warmOpts} {
		if _, err := Run(rec, word, opts); err != nil {
			t.Fatal(err)
		}
	}

	cold := testing.AllocsPerRun(40, func() {
		if _, err := Run(rec, word, coldOpts); err != nil {
			t.Fatal(err)
		}
	})
	warm := testing.AllocsPerRun(40, func() {
		if _, err := Run(rec, word, warmOpts); err != nil {
			t.Fatal(err)
		}
	})
	if warm > cold {
		t.Errorf("steady-state warm run allocates %.0f/op, cold floor is %.0f/op", warm, cold)
	}
	if st := warmOpts.Prefix.Stats(); st.Hits == 0 {
		t.Fatalf("steady-state runs were not full hits (stats %+v)", st)
	}
}

// FuzzPrefixResume drives checkpoint capture and resume at arbitrary split
// points: for a fuzzed word and boundary, a run resumed from a checkpoint
// captured at that boundary must be bit-identical to the cold run. Splitting
// anywhere — not just at the cache's policy boundaries — exercises the
// engine-level invariant the cache builds on.
func FuzzPrefixResume(f *testing.F) {
	f.Add("0110101101", uint16(4))
	f.Add("111111111", uint16(8))
	f.Add("0101", uint16(1))
	f.Fuzz(func(t *testing.T, raw string, split uint16) {
		rec := NewMajority()
		word := make(lang.Word, 0, len(raw))
		for _, r := range raw {
			if len(word) == 64 {
				break
			}
			if r%2 == 0 {
				word = append(word, '0')
			} else {
				word = append(word, '1')
			}
		}
		if len(word) < 2 {
			return
		}
		cfg := ring.Config{Mode: rec.Mode(), Initiators: ring.LeaderOnly, RequireVerdict: true}
		eng := ring.NewSequentialEngine()

		nodes, err := rec.NewNodes(word)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.Run(cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		coldStats := cold.Stats.Clone()
		coldVerdict := cold.Verdict

		// Any split inside the run is legal; splits at or past the verdict
		// are simply never captured and the resume degenerates to cold.
		d := 1 + int(split)%(len(word)+2)
		var cp *ring.Checkpoint
		nodes, err = rec.NewNodes(word)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunCheckpointed(nil, cfg, nodes, ring.CheckpointRun{
			CaptureAfter: []int{d},
			OnCapture:    func(c *ring.Checkpoint) { cp = c },
		}); err != nil {
			t.Fatal(err)
		}
		nodes, err = rec.NewNodes(word)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.RunCheckpointed(nil, cfg, nodes, ring.CheckpointRun{Resume: cp})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Verdict != coldVerdict {
			t.Fatalf("split %d: verdict %v, cold %v", d, warm.Verdict, coldVerdict)
		}
		if warm.Stats.Messages != coldStats.Messages || warm.Stats.Bits != coldStats.Bits ||
			warm.Stats.MaxMessageBits != coldStats.MaxMessageBits {
			t.Fatalf("split %d: %d msgs/%d bits, cold %d msgs/%d bits",
				d, warm.Stats.Messages, warm.Stats.Bits, coldStats.Messages, coldStats.Bits)
		}
		warmLinks, coldLinks := warm.Stats.Links(), coldStats.Links()
		for i := range coldLinks {
			if warmLinks[i] != coldLinks[i] {
				t.Fatalf("split %d: link %d = %+v, cold %+v", d, i, warmLinks[i], coldLinks[i])
			}
		}
	})
}
