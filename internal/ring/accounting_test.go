package ring

import (
	"testing"

	"ringlang/internal/bits"
)

// sliceAccountingEngines are the engines the slice-accounting tests compare
// with their sequential baseline. The sharded engine runs at forced worker
// counts, so node code runs on several goroutines (under -race too) even on
// rings far below the automatic sharding threshold.
var sliceAccountingEngines = []struct {
	name string
	eng  Engine
}{
	{"sequential", NewSequentialEngine()},
	{"sharded-2", NewShardedEngineWorkers(2)},
	{"sharded-3", NewShardedEngineWorkers(3)},
}

// decideThenSendNode is a leader that accepts inside Start and still returns
// sends. The start phase records and enqueues the whole slice before it
// looks at the verdict, so both sends are accounted although the run ends
// before either is delivered.
type decideThenSendNode struct {
	leader bool
}

func (d *decideThenSendNode) Start(ctx *Context) ([]Send, error) {
	if !d.leader {
		return nil, nil
	}
	if err := ctx.Accept(); err != nil {
		return nil, err
	}
	var w bits.Writer
	w.WriteBool(true)
	payload := w.String()
	return []Send{SendForward(payload), SendForward(payload)}, nil
}

func (d *decideThenSendNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	return nil, nil
}

// TestDispatchAccountsFullSliceOnVerdict pins record-then-deliver for a send
// slice returned together with a verdict: a start phase that stopped
// dispatching once Start had decided would drop both sends from the
// accounting. Every engine must match the sequential baseline of 2 messages
// and 2 bits on every run.
func TestDispatchAccountsFullSliceOnVerdict(t *testing.T) {
	nodes := func() []Node {
		return []Node{
			&decideThenSendNode{leader: true},
			&decideThenSendNode{},
			&decideThenSendNode{},
		}
	}
	cfg := Config{RequireVerdict: true}
	want, err := NewSequentialEngine().Run(cfg, nodes())
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Messages != 2 || want.Stats.Bits != 2 {
		t.Fatalf("sequential baseline = %d msgs / %d bits, want 2/2", want.Stats.Messages, want.Stats.Bits)
	}
	for _, tc := range sliceAccountingEngines {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				res, err := tc.eng.Run(cfg, nodes())
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict != VerdictAccept {
					t.Fatalf("iteration %d: verdict %v", i, res.Verdict)
				}
				if res.Stats.Messages != want.Stats.Messages || res.Stats.Bits != want.Stats.Bits {
					t.Fatalf("iteration %d: recorded %d msgs / %d bits, sequential %d/%d — dispatch dropped part of a send slice",
						i, res.Stats.Messages, res.Stats.Bits, want.Stats.Messages, want.Stats.Bits)
				}
			}
		})
	}
}

// relayNode drives the mid-run variant of the same property: the leader's
// token fans out into a three-send burst at p1, p2 answers the first burst
// message back to the leader, and the leader's accept can land while the
// rest of the burst is still in flight. Whatever the interleaving, the burst
// must be accounted atomically.
type relayNode struct {
	proc int
	seen bool
}

func (r *relayNode) Start(ctx *Context) ([]Send, error) {
	if r.proc != LeaderIndex {
		return nil, nil
	}
	var w bits.Writer
	w.WriteBool(true)
	return []Send{SendForward(w.String())}, nil
}

func (r *relayNode) Receive(ctx *Context, from Direction, payload bits.String) ([]Send, error) {
	switch r.proc {
	case LeaderIndex:
		return nil, ctx.Accept()
	case 1:
		// Burst: three one-bit messages toward p2.
		return []Send{SendForward(payload), SendForward(payload), SendForward(payload)}, nil
	default:
		// p2 answers only the first burst message, completing the ring back
		// to the leader; later burst messages are absorbed.
		if r.seen {
			return nil, nil
		}
		r.seen = true
		return []Send{SendForward(payload)}, nil
	}
}

// TestBurstAccountingIsDeterministic runs the relay ring many times on every
// engine: the verdict lands while burst messages may still be in flight, and
// with atomic slice accounting the totals are the same on every run and
// equal to the sequential engine's.
func TestBurstAccountingIsDeterministic(t *testing.T) {
	nodes := func() []Node {
		return []Node{&relayNode{proc: 0}, &relayNode{proc: 1}, &relayNode{proc: 2}}
	}
	cfg := Config{RequireVerdict: true}
	want, err := NewSequentialEngine().Run(cfg, nodes())
	if err != nil {
		t.Fatal(err)
	}
	// Start token + burst of three + p2's single answer = 5 messages.
	if want.Stats.Messages != 5 {
		t.Fatalf("sequential baseline = %d msgs, want 5", want.Stats.Messages)
	}
	for _, tc := range sliceAccountingEngines {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				res, err := tc.eng.Run(cfg, nodes())
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Messages != want.Stats.Messages || res.Stats.Bits != want.Stats.Bits {
					t.Fatalf("iteration %d: recorded %d msgs / %d bits, sequential %d/%d",
						i, res.Stats.Messages, res.Stats.Bits, want.Stats.Messages, want.Stats.Bits)
				}
			}
		})
	}
}
