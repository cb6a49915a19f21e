package ring

import (
	"testing"

	"ringlang/internal/bits"
)

// faultsOf reads a fault scheduler's report the way runLoop does.
func faultsOf(s faultReporter) FaultReport {
	var fr FaultReport
	var crashed [1]int
	s.reportFaults(&fr, crashed[:0])
	return fr
}

// drain pops every pending delivery of a scheduler.
func drain(s Scheduler) []Delivery {
	var out []Delivery
	for {
		d, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

func TestLossyDeliversEverythingInLinkOrder(t *testing.T) {
	s := NewLossyScheduler(7, 0.5, 4)
	s.Reset(8)
	want := map[int][]int{1: {10, 11, 12}, 4: {40, 41}, 7: {70}}
	for link, tags := range want {
		for _, tag := range tags {
			s.Push(link, tagged(link, tag))
		}
	}
	got := map[int][]int{}
	total := 0
	for _, d := range drain(s) {
		link := linkIndex(d.To, d.From)
		got[link] = append(got[link], tagOf(d))
		total++
	}
	if total != 6 {
		t.Fatalf("delivered %d messages, want all 6", total)
	}
	for link, tags := range want {
		if len(got[link]) != len(tags) {
			t.Fatalf("link %d: delivered %v, want %v", link, got[link], tags)
		}
		for i, tag := range tags {
			if got[link][i] != tag {
				t.Errorf("link %d: delivery %d = tag %d, want %d (per-link FIFO violated)", link, i, got[link][i], tag)
			}
		}
	}
	fr := faultsOf(s.(*lossyScheduler))
	if fr.Dropped == 0 {
		t.Error("drop rate 0.5 over 6 messages dropped nothing; the fate roll is not wired")
	}
	if fr.RetransmitBits != fr.Dropped*8 {
		t.Errorf("RetransmitBits = %d for %d dropped 8-bit frames", fr.RetransmitBits, fr.Dropped)
	}
}

func TestLossyDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]int, FaultReport) {
		s := NewLossyScheduler(seed, 0.4, 3)
		s.Reset(6)
		for link := 0; link < 6; link++ {
			for j := 0; j < 4; j++ {
				s.Push(link, tagged(link, 16*link+j))
			}
		}
		var tags []int
		for _, d := range drain(s) {
			tags = append(tags, tagOf(d))
		}
		return tags, faultsOf(s.(*lossyScheduler))
	}
	aTags, aFaults := run(3)
	bTags, bFaults := run(3)
	if len(aTags) != 24 {
		t.Fatalf("delivered %d of 24 messages", len(aTags))
	}
	if aFaults.Dropped != bFaults.Dropped || aFaults.RetransmitBits != bFaults.RetransmitBits {
		t.Errorf("same seed, different fault reports: %+v vs %+v", aFaults, bFaults)
	}
	for i := range aTags {
		if aTags[i] != bTags[i] {
			t.Fatalf("same seed, different delivery order at %d: %d vs %d", i, aTags[i], bTags[i])
		}
	}
	cTags, _ := run(4)
	same := len(cTags) == len(aTags)
	if same {
		for i := range aTags {
			if cTags[i] != aTags[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 3 and 4 produced identical lossy executions; the seed is not wired")
	}
}

func TestDuplicatingRedeliversAdjacentAndClones(t *testing.T) {
	s := NewDuplicatingScheduler(1, 0.99)
	s.Reset(4)
	link := 3

	// Payloads built on a caller-owned buffer the "sender" overwrites after
	// the original delivery: the duplicate must have been snapshotted.
	buf := []byte{0xAB}
	s.Push(link, Delivery{To: link >> 1, From: Direction(link&1 + 1), Payload: bits.View(buf, 8)})

	first, ok := s.Next()
	if !ok || first.Payload.Raw()[0] != 0xAB {
		t.Fatalf("original delivery = %v %x", ok, first.Payload.Raw())
	}
	buf[0] = 0xFF // sender scratch reuse after delivery
	dup, ok := s.Next()
	if !ok {
		t.Fatal("duplicate was scheduled (rate 0.99) but never delivered")
	}
	if dup.To != first.To || dup.From != first.From {
		t.Errorf("duplicate delivered on a different link: %+v vs %+v", dup, first)
	}
	if dup.Payload.Raw()[0] != 0xAB {
		t.Errorf("duplicate payload = %x, want the snapshot AB; it aliases the sender's buffer", dup.Payload.Raw())
	}
	if _, ok := s.Next(); ok {
		t.Error("a duplicate was itself duplicated; at-least-once must stay bounded")
	}
	fr := faultsOf(s.(*duplicatingScheduler))
	if fr.Duplicates != 1 || fr.DuplicateBits != 8 {
		t.Errorf("fault report = %+v, want 1 duplicate of 8 bits", fr)
	}
}

func TestDuplicatingKeepsPerLinkOrder(t *testing.T) {
	s := NewDuplicatingScheduler(5, 0.9)
	s.Reset(2)
	link := 1
	for _, tag := range []int{1, 2, 3} {
		s.Push(link, tagged(link, tag))
	}
	var tags []int
	for _, d := range drain(s) {
		tags = append(tags, tagOf(d))
	}
	// At-least-once with adjacency: each tag appears once or twice, in
	// non-decreasing original order (m, m, m', ...).
	seen := map[int]int{}
	last := 0
	for _, tag := range tags {
		seen[tag]++
		if tag < last {
			t.Fatalf("delivery order %v revisits tag %d after %d; duplicates must stay adjacent", tags, tag, last)
		}
		last = tag
	}
	for _, tag := range []int{1, 2, 3} {
		if seen[tag] < 1 || seen[tag] > 2 {
			t.Errorf("tag %d delivered %d times, want 1 or 2", tag, seen[tag])
		}
	}
}

func TestCrashRepairReroutesPastTheCrash(t *testing.T) {
	sched := NewCrashRepairScheduler(11).(*crashScheduler)
	n := 8
	sched.Reset(numLinks(n))
	c, at := sched.crashProc, sched.crashAt
	if c < 1 || c >= n {
		t.Fatalf("crash processor %d out of range [1, %d)", c, n)
	}

	// Drive `at` deliveries over a link the crash never touches to arm it.
	filler := linkIndex(0, Backward)
	for i := 0; i < at; i++ {
		sched.Push(filler, tagged(filler, i))
	}
	for i := 0; i < at; i++ {
		if _, ok := sched.Next(); !ok {
			t.Fatalf("filler delivery %d missing", i)
		}
	}

	// A frame addressed to the crashed processor, travelling Forward
	// (arriving from its Backward side), must splice to its Forward
	// neighbour with the arrival direction unchanged.
	link := linkIndex(c, Backward)
	sched.Push(link, tagged(link, 99))
	d, ok := sched.Next()
	if !ok {
		t.Fatal("rerouted frame never delivered")
	}
	if want := (c + 1) % n; d.To != want || d.From != Backward {
		t.Errorf("rerouted to processor %d from %v, want %d from Backward", d.To, d.From, want)
	}
	fr := faultsOf(sched)
	if len(fr.Crashed) != 1 || fr.Crashed[0] != c || fr.Rerouted != 1 {
		t.Errorf("fault report = %+v, want crashed=[%d] rerouted=1", fr, c)
	}
}

func TestCrashRestartDefersButDeliversEverything(t *testing.T) {
	sched := NewCrashRestartScheduler(11).(*crashScheduler)
	n := 6
	sched.Reset(numLinks(n))
	c, at := sched.crashProc, sched.crashAt

	// Arm the crash on fault-free traffic first, so the frames addressed to
	// the crashed processor are pushed only once the outage has begun.
	filler := linkIndex(0, Backward)
	for i := 0; i < at; i++ {
		sched.Push(filler, tagged(filler, i))
	}
	if got := len(drain(sched)); got != at {
		t.Fatalf("delivered %d of %d filler messages", got, at)
	}
	crashedLink := linkIndex(c, Backward)
	sched.Push(crashedLink, tagged(crashedLink, 101))
	sched.Push(crashedLink, tagged(crashedLink, 102))

	var toCrashed []int
	delivered := 0
	for _, d := range drain(sched) {
		delivered++
		if d.To == c {
			toCrashed = append(toCrashed, tagOf(d))
		}
	}
	if delivered != 2 {
		t.Fatalf("delivered %d of 2 post-crash messages; restart must not lose frames", delivered)
	}
	if len(toCrashed) != 2 || toCrashed[0] != 101 || toCrashed[1] != 102 {
		t.Errorf("crashed processor received %v, want [101 102] in order (buffered replay)", toCrashed)
	}
	fr := faultsOf(sched)
	if len(fr.Crashed) != 1 || fr.Crashed[0] != c {
		t.Errorf("fault report = %+v, want crashed=[%d]", fr, c)
	}
	if fr.Deferred == 0 {
		t.Error("no delivery offer was deferred; the outage is not wired")
	}
}

func TestFaultEngineGuaranteesAndReports(t *testing.T) {
	cases := []struct {
		engine Engine
		want   DeliveryGuarantee
	}{
		{NewSequentialEngine(), ExactlyOnce},
		{engineNamed("random", 1), ExactlyOnce},
		{engineNamed("round-robin", 0), ExactlyOnce},
		{engineNamed("lossy", 1), ExactlyOnce},
		{engineNamed("crash-restart", 1), ExactlyOnce},
		{engineNamed("duplicating", 1), AtLeastOnce},
		{engineNamed("crash-repair", 1), CrashProne},
	}
	for _, tc := range cases {
		if got := EngineDeliveryGuarantee(tc.engine); got != tc.want {
			t.Errorf("EngineDeliveryGuarantee(%s) = %v, want %v", tc.engine.Name(), got, tc.want)
		}
	}

	// Reliable engines attach no fault report; fault engines always do.
	seqRes, err := NewSequentialEngine().Run(Config{Mode: Unidirectional}, tokenNodes(12))
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Faults != nil {
		t.Errorf("sequential run carries a fault report: %+v", seqRes.Faults)
	}
	lossyRes, err := engineOf(func() Scheduler { return NewLossyScheduler(3, 0.5, 3) }).Run(Config{Mode: Unidirectional}, tokenNodes(12))
	if err != nil {
		t.Fatal(err)
	}
	if lossyRes.Faults == nil {
		t.Fatal("lossy run carries no fault report")
	}
	if lossyRes.Verdict != seqRes.Verdict || lossyRes.Stats.Bits != seqRes.Stats.Bits {
		t.Errorf("lossy run diverged from sequential: %v/%d vs %v/%d",
			lossyRes.Verdict, lossyRes.Stats.Bits, seqRes.Verdict, seqRes.Stats.Bits)
	}
}

func TestDedupAbsorbsDuplicatingDelivery(t *testing.T) {
	base, err := NewSequentialEngine().Run(Config{Mode: Unidirectional}, WithDedupAll(tokenNodes(16)))
	if err != nil {
		t.Fatal(err)
	}
	// One sequence bit per message on top of the raw token ring.
	raw, err := NewSequentialEngine().Run(Config{Mode: Unidirectional}, tokenNodes(16))
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Bits != raw.Stats.Bits+raw.Stats.Messages {
		t.Errorf("dedup framing: %d bits, want %d (+1 bit per message over %d)",
			base.Stats.Bits, raw.Stats.Bits+raw.Stats.Messages, raw.Stats.Bits)
	}
	duplicates := 0
	for seed := int64(1); seed <= 5; seed++ {
		res, err := engineOf(func() Scheduler { return NewDuplicatingScheduler(seed, 0.25) }).Run(Config{Mode: Unidirectional}, WithDedupAll(tokenNodes(16)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Verdict != base.Verdict || res.Stats.Bits != base.Stats.Bits || res.Stats.Messages != base.Stats.Messages {
			t.Errorf("seed %d: dedup run diverged under duplicates: %v/%d bits vs %v/%d",
				seed, res.Verdict, res.Stats.Bits, base.Verdict, base.Stats.Bits)
		}
		duplicates += res.Faults.Duplicates
	}
	if duplicates == 0 {
		t.Error("five seeds at rate 0.25 produced no duplicate; the fate roll is not wired")
	}
}
