package analysis_test

import (
	"testing"

	"ringlang/internal/analysis"
	"ringlang/internal/analysis/vettest"
)

// TestAllocFlow loads the whole allocflow fixture tree — the rules inside
// the roots in hot, the in-package propagation cases in a and the
// cross-package root-in-b, callee-in-lib chain — as one program, the same
// way cmd/ringvet sees the module.
func TestAllocFlow(t *testing.T) {
	vettest.Run(t, "allocflow", analysis.AllocFlow)
}

// TestHotpathAlloc loads the hot fixture on its own, so the per-construct
// rules inside //ring:hotpath roots are pinned without any cross-package
// reach: its findings must match the same wants as in the whole tree.
func TestHotpathAlloc(t *testing.T) {
	vettest.Run(t, "allocflow/hot", analysis.AllocFlow)
}
