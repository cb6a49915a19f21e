package ring

import "fmt"

// RandomOrderEngine is a single-goroutine engine that delivers pending
// messages in a pseudo-random (but seeded, hence reproducible) order instead
// of FIFO: the shared event loop under a seeded random scheduler. Because the
// asynchronous model allows any finite message delay, every such order is a
// legal execution; running an algorithm under many seeds is how the test
// suite checks that verdicts and bit totals are schedule-independent.
//
// Messages on the same directed link still respect FIFO order: links are
// channels, and they do not reorder.
type RandomOrderEngine struct {
	seed int64
}

var _ StatefulEngine = (*RandomOrderEngine)(nil)

// NewRandomOrderEngine returns an engine whose delivery order is determined
// by the seed.
func NewRandomOrderEngine(seed int64) *RandomOrderEngine {
	return &RandomOrderEngine{seed: seed}
}

// Name implements Engine.
//
//ring:coldpath -- label rendering; called at setup and in error reports, never per message
func (e *RandomOrderEngine) Name() string { return fmt.Sprintf("random-order(seed=%d)", e.seed) }

// Run implements Engine.
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *RandomOrderEngine) Run(cfg Config, nodes []Node) (*Result, error) {
	return runLoop(cfg, nodes, &randomScheduler{seed: e.seed}, nil)
}

// RunWith implements StatefulEngine. The scheduler re-seeds on every Reset,
// so a reused scheduler produces the identical delivery order each run.
//
//ring:coldpath -- per-run entry point; the delivery loop below carries its own //ring:hotpath roots
func (e *RandomOrderEngine) RunWith(st *RunState, cfg Config, nodes []Node) (*Result, error) {
	return runLoop(cfg, nodes, st.scheduler(e, func() Scheduler { return NewRandomScheduler(e.seed) }), st)
}
