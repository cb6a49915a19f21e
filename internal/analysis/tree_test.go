package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringlang/internal/analysis"
	"ringlang/internal/analysis/load"
)

// TestModuleIsRingvetClean runs the full analyzer suite over the whole
// module — the same gate CI applies via cmd/ringvet — so a finding
// introduced anywhere in the tree fails `go test ./...` even when nobody
// ran the command by hand.
func TestModuleIsRingvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	root := findModuleRoot(t)
	pkgs, err := load.Load(root, true, "./...")
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one variant per package: analyzing both plain "q" and a
	// bracketed rebuild "q [p.test]" would duplicate every finding in q and
	// break the baseline's multiset matching.
	seen := make(map[string]string)
	for _, pkg := range pkgs {
		stripped := pkg.ImportPath
		if i := strings.IndexByte(stripped, ' '); i >= 0 {
			stripped = stripped[:i]
		}
		if prev, dup := seen[stripped]; dup {
			t.Errorf("load analyzed two variants of %s: %q and %q", stripped, prev, pkg.ImportPath)
		}
		seen[stripped] = pkg.ImportPath
	}
	// One Program over every package: the interprocedural analyzers
	// (allocflow, snapshotpure) need the whole module in view — a hot root
	// in internal/ring reaches callees in internal/core and internal/bits,
	// and freshness summaries resolve cross-package (bits.String.Clone).
	targets := make([]analysis.Target, 0, len(pkgs))
	for _, pkg := range pkgs {
		targets = append(targets, analysis.Target{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		})
	}
	diags, err := analysis.RunProgram(targets, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", targets[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestAllocFlowCoversSteadyStatePath pins the dataflow tier's acceptance
// bar: every function on the steady-state delivery path of a large-ring run
// (event loop → dispatch/routing → FIFO arena → token handlers → stats
// accounting → codec) must be reachable from the existing //ring:hotpath
// roots through the call graph alone — no per-function annotations.
func TestAllocFlowCoversSteadyStatePath(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	root := findModuleRoot(t)
	pkgs, err := load.Load(root, false, "./...")
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]analysis.Target, 0, len(pkgs))
	for _, pkg := range pkgs {
		targets = append(targets, analysis.Target{
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
		})
	}
	prog, err := analysis.BuildProgram(targets)
	if err != nil {
		t.Fatal(err)
	}
	reach := prog.HotReachable()
	for _, id := range []analysis.FuncID{
		"ringlang/internal/ring.runLoopFrom",
		"ringlang/internal/ring.routeSend",
		"ringlang/internal/ring.(RunState).resetContexts",
		"ringlang/internal/ring.(fifoQueue).push",
		"ringlang/internal/ring.(fifoQueue).pop",
		"ringlang/internal/ring.(Stats).record",
		"ringlang/internal/ring.(linkQueues).push",
		"ringlang/internal/ring.(linkQueues).pop",
		"ringlang/internal/ring.(randomScheduler).Next",
		"ringlang/internal/ring.(roundRobinScheduler).Push",
		"ringlang/internal/ring.(roundRobinScheduler).Next",
		"ringlang/internal/ring.(adversarialScheduler).Push",
		"ringlang/internal/ring.(adversarialScheduler).Next",
		"ringlang/internal/core.(tokenPassNode).Receive",
		"ringlang/internal/core.(lineNode).Receive",
		"ringlang/internal/bits.(Writer).WriteUint",
		"ringlang/internal/bits.(Reader).ReadUint",
	} {
		if reach[id] == nil {
			t.Errorf("steady-state function %s is not reachable from any //ring:hotpath root", id)
		}
	}
}

// findModuleRoot walks up from the package directory to the go.mod root.
func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's working directory")
		}
		dir = parent
	}
}
