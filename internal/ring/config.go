package ring

import (
	"context"
	"errors"
	"fmt"
)

// LeaderIndex is the index of the leader processor. The paper numbers
// processors p_1..p_n with p_1 the leader; we use 0-based indices, so the
// leader is processor 0 and "forward" goes 0 → 1 → … → n-1 → 0.
const LeaderIndex = 0

// Initiators selects which processors have Start called on them.
type Initiators int

const (
	// LeaderOnly: only the leader initiates (the paper's recognition model).
	LeaderOnly Initiators = iota + 1
	// AllProcessors: every processor initiates (used by leader election).
	AllProcessors
)

// Config describes a single execution of an algorithm on a ring.
type Config struct {
	// Mode selects unidirectional or bidirectional links.
	Mode Mode
	// Initiators selects which processors receive a Start call.
	Initiators Initiators
	// RecordTrace enables full per-message trace recording (needed by the
	// information-state analyses, expensive for very large rings).
	RecordTrace bool
	// MaxMessages aborts the run after this many deliveries, as a protection
	// against non-terminating algorithms. Zero means the engine default.
	MaxMessages int
	// RequireVerdict makes the run fail if the algorithm quiesces without the
	// leader having decided. Recognition algorithms set this; election does
	// not.
	RequireVerdict bool
	// Ctx, when non-nil, lets the caller cancel the run. Engines check it at
	// amortized cost (every ctxCheckInterval deliveries for the event loop,
	// every budgetBatch deliveries and when idle for a sharded worker), so the
	// steady-state hot path stays allocation-free; a canceled run fails with
	// an error matching both ErrCanceled and the context's own error under
	// errors.Is.
	Ctx context.Context
}

// DefaultMaxMessagesPerProcessor bounds runaway executions: an execution may
// deliver at most this many messages times the ring size before the engine
// aborts it.
const DefaultMaxMessagesPerProcessor = 4096

// ErrNoProcessors is returned when an engine is run with an empty ring.
var ErrNoProcessors = errors.New("ring: ring must contain at least one processor")

// ErrBackwardInUnidirectional is returned when an algorithm sends backward on
// a unidirectional ring.
var ErrBackwardInUnidirectional = errors.New("ring: backward send on a unidirectional ring")

// ErrMessageBudgetExceeded is returned when an execution exceeds MaxMessages.
var ErrMessageBudgetExceeded = errors.New("ring: message budget exceeded (non-terminating algorithm?)")

// ErrNoVerdict is returned when RequireVerdict is set and the execution
// quiesced without a leader decision.
var ErrNoVerdict = errors.New("ring: execution quiesced without a verdict")

// ErrCanceled is returned when Config.Ctx is canceled before or during a run.
// Errors wrapping it also wrap the context's own error, so callers can test
// either errors.Is(err, ErrCanceled) or errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("ring: run canceled")

// canceledRun builds the terminal error of a canceled execution.
func canceledRun(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
}

// ctxCheckInterval is how often (in deliveries) the event loop polls
// Config.Ctx. A power of two, so the check compiles to a mask test; at 256
// the n=4096 token circulation pays 16 channel polls per run and the
// allocation floor guarded by TestEngineLoopAllocRegressionGuard is
// unchanged.
const ctxCheckInterval = 256

// normalize validates the configuration and fills in defaults for a ring of
// the given size.
func (c Config) normalize(numProcessors int) (Config, error) {
	if numProcessors < 1 {
		return c, ErrNoProcessors
	}
	if c.Mode == 0 {
		c.Mode = Unidirectional
	}
	if c.Mode != Unidirectional && c.Mode != Bidirectional {
		return c, fmt.Errorf("ring: invalid mode %d", c.Mode)
	}
	if c.Initiators == 0 {
		c.Initiators = LeaderOnly
	}
	if c.Initiators != LeaderOnly && c.Initiators != AllProcessors {
		return c, fmt.Errorf("ring: invalid initiators %d", c.Initiators)
	}
	if c.MaxMessages == 0 {
		c.MaxMessages = DefaultMaxMessagesPerProcessor * numProcessors
	}
	return c, nil
}
