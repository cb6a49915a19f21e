package ring

import (
	"testing"

	"ringlang/internal/bits"
)

func oneBit() bits.String {
	var w bits.Writer
	w.WriteBool(true)
	return w.String()
}

// linkAt returns the Links entry of the link from → to, if it carried
// traffic.
func linkAt(s *Stats, from, to int) (LinkStats, bool) {
	for _, ls := range s.Links() {
		if ls.From == from && ls.To == to {
			return ls, true
		}
	}
	return LinkStats{}, false
}

// TestMinLinkBitsDeterministicTieBreak pins the Theorem 5 cut-link choice: on
// a symmetric-traffic ring every link carries the same number of bits, and
// the seed implementation picked the winner by map iteration order — a
// different link on identical runs. The tie must deterministically go to the
// lowest (From, To).
func TestMinLinkBitsDeterministicTieBreak(t *testing.T) {
	const n = 8
	for i := 0; i < 100; i++ {
		res, err := NewSequentialEngine().Run(Config{RequireVerdict: true}, tokenNodes(n))
		if err != nil {
			t.Fatal(err)
		}
		min, ok := res.Stats.MinLinkBits()
		if !ok {
			t.Fatal("no link carried traffic")
		}
		if min.From != 0 || min.To != 1 {
			t.Fatalf("iteration %d: MinLinkBits chose link (%d,%d); the deterministic tie-break is (0,1)",
				i, min.From, min.To)
		}
	}
}

// TestMinLinkBitsPrefersFewerBits checks the tie-break only applies to actual
// ties: a strictly cheaper link wins regardless of its position.
func TestMinLinkBitsPrefersFewerBits(t *testing.T) {
	s := &Stats{Processors: 4}
	payload := oneBit()
	// Links (0→1) and (1→2) carry two messages, (2→3) carries one.
	s.record(1, Backward, payload.Len())
	s.record(1, Backward, payload.Len())
	s.record(2, Backward, payload.Len())
	s.record(2, Backward, payload.Len())
	s.record(3, Backward, payload.Len())
	min, ok := s.MinLinkBits()
	if !ok || min.From != 2 || min.To != 3 || min.Bits != 1 {
		t.Fatalf("MinLinkBits = %+v/%v, want link (2,3) with 1 bit", min, ok)
	}
}

// TestStatsResetReuse checks that a reused Stats starts every run from a
// clean slate while keeping its backing array.
func TestStatsResetReuse(t *testing.T) {
	s := &Stats{Processors: 4}
	payload := oneBit()
	s.record(1, Backward, payload.Len())
	s.record(0, Backward, payload.Len())
	if s.Messages != 2 || s.Bits != 2 {
		t.Fatalf("unexpected totals %d/%d", s.Messages, s.Bits)
	}
	snapshot := s.Clone()

	s.reset(4)
	if s.Messages != 0 || s.Bits != 0 || s.MaxMessageBits != 0 {
		t.Fatalf("reset left totals %d/%d/%d", s.Messages, s.Bits, s.MaxMessageBits)
	}
	if links := s.Links(); len(links) != 0 {
		t.Fatalf("reset left %d per-link entries", len(links))
	}
	if _, ok := s.MinLinkBits(); ok {
		t.Fatal("reset Stats still reports a min link")
	}

	// The clone must be unaffected by the reset.
	if snapshot.Messages != 2 || snapshot.Bits != 2 {
		t.Fatalf("clone mutated by reset: %+v", snapshot)
	}
	if ls, ok := linkAt(snapshot, 0, 1); !ok || ls.Messages != 1 {
		t.Fatalf("clone lost per-link entry: %+v/%v", ls, ok)
	}

	// Growing the ring reallocates; shrinking reuses.
	s.reset(2)
	s.record(1, Backward, payload.Len())
	if ls, ok := linkAt(s, 0, 1); !ok || ls.Bits != 1 {
		t.Fatalf("reuse after shrink broken: %+v/%v", ls, ok)
	}
}

// TestLinksMergesSharedKeys covers the n=2 bidirectional edge: the forward
// and backward links between the same processor pair share a (From, To) key
// and Links must merge them like the seed map did.
func TestLinksMergesSharedKeys(t *testing.T) {
	s := &Stats{Processors: 2}
	payload := oneBit()
	// 0→1 travelling forward (arrives from the receiver's backward side) and
	// 0→1 travelling backward (arrives from the receiver's forward side).
	s.record(1, Backward, payload.Len())
	s.record(1, Forward, payload.Len())
	links := s.Links()
	if len(links) != 1 {
		t.Fatalf("expected 1 merged entry, got %d", len(links))
	}
	if ls := links[0]; ls.From != 0 || ls.To != 1 || ls.Messages != 2 || ls.Bits != 2 {
		t.Fatalf("merged entry = %+v, want link (0,1) with 2 messages / 2 bits", ls)
	}
	// MinLinkBits sees the same merged accounting, so the cut quantity of a
	// degenerate ring matches the seed map's.
	if min, ok := s.MinLinkBits(); !ok || min.Bits != 2 {
		t.Fatalf("MinLinkBits = %+v/%v, want the merged 2-bit link", min, ok)
	}
}
