package core

import (
	"context"
	"errors"
	"fmt"

	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// Recognizer is a distributed algorithm that decides membership of the ring's
// pattern in a fixed language. Implementations construct per-processor nodes;
// the engine does the running and the bit accounting.
type Recognizer interface {
	// Name identifies the algorithm (not the language) in reports.
	Name() string
	// Language is the language the recognizer decides.
	Language() lang.Language
	// Mode is the ring topology the algorithm needs.
	Mode() ring.Mode
	// NewNodes builds one node per processor for a ring labelled with word
	// (word[i] is processor i's letter; processor 0 is the leader).
	NewNodes(word lang.Word) ([]ring.Node, error)
}

// ErrEmptyWord is returned when a recognizer is run on an empty ring: the
// model always has at least one processor (the leader).
var ErrEmptyWord = errors.New("core: ring must hold at least one letter")

// RunOptions configures a single recognition run.
type RunOptions struct {
	// Engine to execute on; when nil, Schedule selects a built-in engine,
	// defaulting to the deterministic sequential one.
	Engine ring.Engine
	// Schedule names a built-in delivery schedule — one of
	// ring.ScheduleNames: "sequential", "random", "round-robin",
	// "adversarial", "sharded", and the fault schedules "lossy",
	// "duplicating", "crash-restart", "crash-repair". Ignored when Engine is
	// non-nil.
	Schedule string
	// Seed drives the seeded schedules: "random" and every fault schedule
	// (see ring.ScheduleUsesSeed). The other schedules ignore it.
	Seed int64
	// RecordTrace enables trace recording for information-state analyses.
	RecordTrace bool
	// State, when non-nil, lets engines that support it (ring.StatefulEngine)
	// reuse the per-run allocations — stats, contexts, scheduler queues —
	// across runs. The returned Result then aliases State and is valid only
	// until State's next run; snapshot Stats with Clone to retain it. Every
	// built-in engine supports it; a custom engine without state support
	// ignores it.
	State *ring.RunState
	// Presize, when positive, pre-reserves State's backing arrays for a ring
	// of that many processors before the run starts, so a large-ring run
	// proceeds without queue- or context-growth reallocations. When State is
	// nil and the engine supports reuse, a transient pre-sized state is
	// created for the run. Values smaller than the word length are harmless:
	// the run grows past them as usual.
	Presize int
	// Ctx, when non-nil, cancels the run: the engine aborts with an error
	// matching ring.ErrCanceled (and the context's own error) under
	// errors.Is. Cancellation is checked at amortized cost, so the hot path
	// is unaffected. A nil Ctx means the run cannot be canceled.
	Ctx context.Context
	// Prefix, when non-nil, reuses shared-prefix computation across runs: the
	// run resumes from the deepest checkpoint the cache holds for a prefix of
	// word and deposits checkpoints at the cache's capture boundaries for
	// later runs. Only engaged when the recognizer is PrefixExtendable, the
	// engine checkpoints (ring.CheckpointEngine) on a prefix-stable schedule
	// (ring.ScheduleIsPrefixStable), and RecordTrace is off; otherwise the
	// run proceeds cold exactly as without the cache. Results are bit-for-bit
	// identical either way.
	Prefix *PrefixCache
	// Reuse, when non-nil, reuses node construction across runs: when the
	// recognizer supports in-place relabelling (NodeRebuilder — every token
	// recognizer does) and one of the few rings Reuse keeps was built by the
	// same recognizer at the same length, that ring is relabelled instead of
	// reallocated. Like State, a NodeReuse belongs to one worker at a time.
	Reuse *NodeReuse
	// AllowFaults lets the run proceed when the engine's delivery guarantee
	// is weaker than the recognizer tolerates (see ErrDeliveryNotTolerated).
	// The run then executes faithfully under the faulty network and its
	// outcome — a verdict the language oracle may contradict, ErrNoVerdict,
	// ErrAlreadyDecided, an algorithm decode error — is the measurement.
	AllowFaults bool
}

// engine resolves the options to a concrete engine.
func (o RunOptions) engine() (ring.Engine, error) {
	if o.Engine != nil {
		return o.Engine, nil
	}
	if o.Schedule != "" {
		return ring.NewEngineByName(o.Schedule, o.Seed)
	}
	return ring.NewSequentialEngine(), nil
}

// Run executes the recognizer on a ring labelled with word and returns the
// engine result (verdict plus exact bit accounting).
//
//ring:coldpath -- per-run entry point; the delivery loops below carry their own //ring:hotpath roots
func Run(rec Recognizer, word lang.Word, opts RunOptions) (*ring.Result, error) {
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, fmt.Errorf("core: %w: %w", ring.ErrCanceled, opts.Ctx.Err())
	}
	if len(word) == 0 {
		return nil, ErrEmptyWord
	}
	if err := rec.Language().Alphabet().ValidWord(word); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nodes, err := buildNodes(rec, word, opts.Reuse)
	if err != nil {
		return nil, fmt.Errorf("core: build nodes for %s: %w", rec.Name(), err)
	}
	if len(nodes) != len(word) {
		return nil, fmt.Errorf("core: %s built %d nodes for %d letters", rec.Name(), len(nodes), len(word))
	}
	engine, err := opts.engine()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if g := ring.EngineDeliveryGuarantee(engine); !opts.AllowFaults && !Tolerates(rec, g) {
		return nil, fmt.Errorf("%w: %s under %s delivery (engine %s); wrap the recognizer with WithDedup or set RunOptions.AllowFaults",
			ErrDeliveryNotTolerated, rec.Name(), g, engine.Name())
	}
	cfg := ring.Config{
		Mode:           rec.Mode(),
		Initiators:     ring.LeaderOnly,
		RecordTrace:    opts.RecordTrace,
		RequireVerdict: true,
		Ctx:            opts.Ctx,
	}
	var res *ring.Result
	if opts.Prefix != nil {
		st := opts.State
		if st != nil && opts.Presize > 0 {
			st.Reserve(opts.Presize)
		}
		if r, handled, perr := prefixRun(opts.Prefix, rec, word, engine, st, cfg, nodes); handled {
			if perr != nil {
				return nil, fmt.Errorf("core: run %s on %d letters: %w", rec.Name(), len(word), perr)
			}
			return r, nil
		}
	}
	if se, ok := engine.(ring.StatefulEngine); ok && (opts.State != nil || opts.Presize > 0) {
		st := opts.State
		if st == nil {
			st = ring.NewRunState()
		}
		if opts.Presize > 0 {
			st.Reserve(opts.Presize)
		}
		res, err = se.RunWith(st, cfg, nodes)
	} else {
		res, err = engine.Run(cfg, nodes)
	}
	if err != nil {
		return nil, fmt.Errorf("core: run %s on %d letters: %w", rec.Name(), len(word), err)
	}
	return res, nil
}

// Check runs the recognizer and verifies the verdict against the language's
// own membership predicate, returning the result on success.
func Check(rec Recognizer, word lang.Word, opts RunOptions) (*ring.Result, error) {
	res, err := Run(rec, word, opts)
	if err != nil {
		return nil, err
	}
	want := ring.VerdictReject
	if rec.Language().Contains(word) {
		want = ring.VerdictAccept
	}
	if res.Verdict != want {
		return nil, fmt.Errorf("core: %s decided %v on %q but the language says %v",
			rec.Name(), res.Verdict, word.String(), want)
	}
	return res, nil
}
