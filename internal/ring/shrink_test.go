package ring

import "testing"

// TestShouldShrinkPolicy pins the retention decision itself: release only
// after shrinkAfterRuns consecutive oversized runs, never for small or
// rightly-sized arrays, and a single adequately-sized run resets the streak.
func TestShouldShrinkPolicy(t *testing.T) {
	runs := 0
	// Small arrays are never released, however oversized.
	if shouldShrink(shrinkMinCap-1, 1, &runs) {
		t.Error("released an array below shrinkMinCap")
	}
	// Capacity in proportion to need is kept.
	if shouldShrink(4096, 4096/shrinkFactor+1, &runs) || runs != 0 {
		t.Error("released (or counted) an array within the retention ratio")
	}
	// An oversized array is released only on the shrinkAfterRuns-th
	// consecutive oversized run.
	for i := 1; i < shrinkAfterRuns; i++ {
		if shouldShrink(4096, 8, &runs) {
			t.Fatalf("released after %d oversized runs, want %d", i, shrinkAfterRuns)
		}
	}
	if !shouldShrink(4096, 8, &runs) {
		t.Fatalf("not released after %d consecutive oversized runs", shrinkAfterRuns)
	}
	if runs != 0 {
		t.Error("release should reset the streak counter")
	}
	// One adequately-sized run in between resets the streak.
	for i := 0; i < shrinkAfterRuns-1; i++ {
		shouldShrink(4096, 8, &runs)
	}
	shouldShrink(4096, 4096, &runs) // rightly-sized run
	if runs != 0 {
		t.Error("a rightly-sized run should reset the streak")
	}
}

func floodNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &floodOnceNode{}
	}
	return nodes
}

// TestRunStateReleasesHighWaterCapacity is the memory-retention pin of the
// large-ring work: one huge run grows every backing array of a RunState (the
// flood pattern keeps n messages in flight, so the FIFO queue and its arena
// grow with n, as do contexts, writers and the per-link stats arrays); a
// long sequence of small runs must then release that high-water capacity
// instead of pinning it forever.
func TestRunStateReleasesHighWaterCapacity(t *testing.T) {
	const big = 1 << 15
	const small = 8
	eng := NewSequentialEngine()
	st := NewRunState()
	cfg := Config{Initiators: AllProcessors}

	if _, err := eng.RunWith(st, cfg, floodNodes(big)); err != nil {
		t.Fatal(err)
	}
	fs, ok := st.sched.(*fifoScheduler)
	if !ok {
		t.Fatalf("cached scheduler is %T, want *fifoScheduler", st.sched)
	}
	if fs.q.retainedSlots() < big {
		t.Fatalf("big run retained only %d slots; the flood should have grown the queue to ≥%d",
			fs.q.retainedSlots(), big)
	}
	if cap(st.contexts) < big || cap(st.loop.stats.linkMsgs) < numLinks(big) {
		t.Fatal("big run did not grow contexts / per-link stats as expected")
	}

	// One more than 2×shrinkAfterRuns small runs: the first small reset still
	// sees the big run's peak, and the queue and stats counters advance on
	// different resets — this comfortably covers every streak.
	for i := 0; i < 2*shrinkAfterRuns+1; i++ {
		if _, err := eng.RunWith(st, cfg, floodNodes(small)); err != nil {
			t.Fatal(err)
		}
	}

	if got := fs.q.retainedSlots(); got > shrinkMinCap {
		t.Errorf("FIFO queue retains %d slots after the small-run streak, want ≤%d", got, shrinkMinCap)
	}
	if got := fs.q.retainedArenaBytes(); got > shrinkMinCap {
		t.Errorf("payload arena retains %d bytes after the small-run streak, want ≤%d", got, shrinkMinCap)
	}
	if got := cap(st.contexts); got > shrinkMinCap {
		t.Errorf("contexts retain capacity %d after the small-run streak, want ≤%d", got, shrinkMinCap)
	}
	if got := cap(st.loop.stats.linkMsgs); got > shrinkMinCap {
		t.Errorf("per-link stats retain capacity %d after the small-run streak, want ≤%d", got, shrinkMinCap)
	}
}

// TestLinkQueuesReleaseHighWaterCapacity covers the pooled per-link queues
// the non-FIFO schedulers use: both the flat head/tail arrays (sized by link
// count) and the entry pool (sized by peak in-flight messages) must shrink
// back after a streak of small runs.
func TestLinkQueuesReleaseHighWaterCapacity(t *testing.T) {
	const big = 1 << 14
	const small = 8
	eng := engineNamed("round-robin", 0)
	st := NewRunState()
	cfg := Config{Initiators: AllProcessors}

	if _, err := eng.RunWith(st, cfg, floodNodes(big)); err != nil {
		t.Fatal(err)
	}
	rr, ok := st.sched.(*roundRobinScheduler)
	if !ok {
		t.Fatalf("cached scheduler is %T, want *roundRobinScheduler", st.sched)
	}
	if rr.links.retainedLinks() < numLinks(big) || rr.links.retainedEntries() < big {
		t.Fatalf("big run retained %d links / %d entries, want ≥%d/≥%d",
			rr.links.retainedLinks(), rr.links.retainedEntries(), numLinks(big), big)
	}

	for i := 0; i < 2*shrinkAfterRuns+1; i++ {
		if _, err := eng.RunWith(st, cfg, floodNodes(small)); err != nil {
			t.Fatal(err)
		}
	}

	if got := rr.links.retainedLinks(); got > shrinkMinCap {
		t.Errorf("link queues retain %d head/tail slots, want ≤%d", got, shrinkMinCap)
	}
	if got := rr.links.retainedEntries(); got > shrinkMinCap {
		t.Errorf("entry pool retains %d entries, want ≤%d", got, shrinkMinCap)
	}
}
