package core

import (
	"ringlang/internal/lang"
	"ringlang/internal/memo"
	"ringlang/internal/ring"
)

// This file connects the three halves of prefix checkpointing: the engine's
// Checkpoint (ring), the bounded prefix store (memo), and the recognizers'
// knowledge of which deliveries a word prefix pins down (PrefixExtendable,
// implemented once for the whole token framework). A PrefixCache threads
// them together under core.Run: look up the longest checkpointed prefix of
// the word, resume from it, and capture fresh checkpoints at a few
// fractional boundaries for future words to reuse.

// PrefixExtendable is implemented by recognizers whose executions consume
// the word as a prefix: the first k deliveries of a cold run are a pure
// function of the first PrefixDeliveries⁻¹(k) letters, under any
// prefix-stable schedule (ring.ScheduleIsPrefixStable).
type PrefixExtendable interface {
	Recognizer
	// PrefixDeliveries returns how many deliveries of a cold run on a
	// wordLen-letter word are fully determined by its first prefixLen
	// letters — the deepest checkpoint boundary that prefix supports. Zero
	// means the prefix pins down nothing usable (the algorithm reads the
	// word in another order, or the ring is too small).
	PrefixDeliveries(prefixLen, wordLen int) int
}

// PrefixDeliveries implements PrefixExtendable for every token recognizer
// at once — this is a property of the framework, not of the ten individual
// declarations. A forward token's delivery j hands the pass-0 token to
// processor j, which folds letter j: after d ≤ n-1 deliveries the execution
// state (token payload in flight, per-processor pass counters, link stats)
// depends only on letters 0..d, i.e. on the length-(d+1) prefix. Later
// passes re-read the whole word, so the usable boundaries stop at n-1
// deliveries regardless of pass count — and since the leader first hears
// the token back at delivery n, no verdict can fire before a boundary.
//
// A Backward token consumes the word right-to-left: its executions share
// *suffixes*, not prefixes, so it reports zero and runs cold.
//
//ring:deterministic
func (t *TokenRecognizer[S]) PrefixDeliveries(prefixLen, wordLen int) int {
	if t.spec.Dir != ring.Forward {
		return 0
	}
	if prefixLen > wordLen {
		prefixLen = wordLen
	}
	if prefixLen < 1 {
		return 0
	}
	return prefixLen - 1
}

var (
	_ ring.PrefixResumable = (*tokenPassNode[int])(nil)
	_ PrefixExtendable     = (*TokenRecognizer[int])(nil)
)

// prefixNS is one checkpoint namespace: checkpoints are only shared between
// runs of the same algorithm and language on the same schedule and ring
// size (node construction, link counts and stats shapes are all n-bound,
// and "known n" algorithms consult the ring size outright).
type prefixNS struct {
	algo     string
	language string
	schedule string
	n        int
}

// PrefixCache reuses shared-prefix computation across recognition runs: a
// bounded store of engine checkpoints keyed by word prefixes, consulted and
// refilled by core.Run (RunOptions.Prefix). One PrefixCache is safe for
// concurrent use and is meant to be shared — across a batch pool's workers,
// across a server's clients — so every run can extend every other run's
// prefixes. Build one with NewPrefixCache.
type PrefixCache struct {
	store *memo.PrefixStore[prefixNS, lang.Letter, *ring.Checkpoint]
}

// NewPrefixCache builds a prefix cache bounded to roughly maxBytes of
// retained checkpoint state (see ring.Checkpoint.Bytes), LRU-evicted across
// all namespaces.
func NewPrefixCache(maxBytes int64) *PrefixCache {
	return &PrefixCache{
		store: memo.NewPrefixStore[prefixNS, lang.Letter](maxBytes,
			func(cp *ring.Checkpoint) int64 { return cp.Bytes() }),
	}
}

// Stats returns the cache's hit/miss/partial-hit counters.
func (p *PrefixCache) Stats() memo.PrefixStats {
	return p.store.Stats()
}

// prefixCaptureBoundaries is the capture policy: checkpoint at these
// fractions of the word, deepest last. Fractional boundaries (not just the
// deepest) are what make *partially* shared corpora pay off — a word
// sharing half its letters with a stored word resumes from the n/2
// checkpoint; deepest-only storage would give it nothing.
var prefixCaptureBoundaries = [4]struct{ num, den int }{
	{1, 2}, {3, 4}, {7, 8}, {1, 1},
}

// run executes one recognition through the cache: resume from the deepest
// stored prefix of word (if any) and capture the boundaries the store does
// not have yet. handled is false when this run gains nothing from
// checkpointing — not a prefix-extendable recognizer, not a prefix-stable
// checkpoint engine, or a ring too small for any boundary — and the caller
// should fall back to the plain path. The steady-state path (deepest
// boundary already stored) allocates nothing beyond a cold RunWith.
//
//ring:hotpath guard=TestPrefixRunStaysOnColdAllocFloor
func (p *PrefixCache) run(rec PrefixExtendable, word lang.Word, ce ring.CheckpointEngine, st *ring.RunState, cfg ring.Config, nodes []ring.Node) (res *ring.Result, handled bool, err error) {
	n := len(word)
	if rec.PrefixDeliveries(n, n) < 1 {
		return nil, false, nil
	}
	ns := prefixNS{
		algo:     rec.Name(),
		language: rec.Language().Name(),
		schedule: ring.CanonicalScheduleName(ce.Name()),
		n:        n,
	}
	cp, foundDepth, _ := p.store.Lookup(ns, word, n)

	// Plan captures: the policy boundaries strictly deeper than what the
	// store already holds along this word (Lookup returned the deepest).
	// Depth (letters) and delivery counts are tracked side by side so the
	// capture callback can translate back without an inverse function.
	var capDeliveries, capDepths [len(prefixCaptureBoundaries)]int
	planned := 0
	for _, b := range prefixCaptureBoundaries {
		depth := n * b.num / b.den
		if depth <= foundDepth || depth < 2 {
			continue
		}
		// The full-word boundary rides cold runs only: a partial-hit resume
		// would pay a whole-ring capture to store a checkpoint the store
		// already holds all but the tail of, turning every shared-prefix
		// sibling's run into an O(n) copy. The words that boundary serves —
		// exact repeats — get it from their own first, cold run.
		if depth == n && foundDepth > 0 {
			continue
		}
		d := rec.PrefixDeliveries(depth, n)
		if d < 1 || (planned > 0 && capDeliveries[planned-1] >= d) {
			continue
		}
		capDeliveries[planned] = d
		capDepths[planned] = depth
		planned++
	}
	if cp == nil && planned == 0 {
		return nil, false, nil
	}

	run := ring.CheckpointRun{Resume: cp}
	if planned > 0 {
		//ringvet:ignore allocflow -- capture planning runs at most once per distinct prefix; the steady-state resume path takes the planned == 0 branch
		run.CaptureAfter = append([]int(nil), capDeliveries[:planned]...)
		deliveries, depths := capDeliveries, capDepths
		//ringvet:ignore allocflow -- same cold-capture path as above
		run.OnCapture = func(c *ring.Checkpoint) {
			for i := 0; i < planned; i++ {
				if deliveries[i] == c.Deliveries() {
					p.store.Insert(ns, word, depths[i], c)
					return
				}
			}
		}
	}
	res, err = ce.RunCheckpointed(st, cfg, nodes, run)
	return res, true, err
}

// prefixRun is Run's gate into the cache: it checks the engine and
// recognizer support checkpointing at all, and otherwise reports handled ==
// false so Run falls back to the plain path.
func prefixRun(p *PrefixCache, rec Recognizer, word lang.Word, engine ring.Engine, st *ring.RunState, cfg ring.Config, nodes []ring.Node) (*ring.Result, bool, error) {
	if cfg.RecordTrace {
		// A resumed run cannot reconstruct the prefix's trace events.
		return nil, false, nil
	}
	pe, ok := rec.(PrefixExtendable)
	if !ok {
		return nil, false, nil
	}
	ce, ok := engine.(ring.CheckpointEngine)
	if !ok || !ring.ScheduleIsPrefixStable(engine.Name()) {
		return nil, false, nil
	}
	return p.run(pe, word, ce, st, cfg, nodes)
}
