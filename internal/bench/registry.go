package bench

import (
	"fmt"
	"io"
	"sort"

	"ringlang/internal/ring"
)

// Suite selects how large the sweeps are.
type Suite int

const (
	// SuiteFull uses the default sizes documented per experiment in DESIGN.md.
	SuiteFull Suite = iota + 1
	// SuiteQuick uses reduced sizes for smoke tests and CI.
	SuiteQuick
)

// Experiment couples an identifier with the function that produces its table.
type Experiment struct {
	ID          string
	Description string
	Run         func(Suite) (*Table, error)
}

// scale halves a size sweep (and caps it) for the quick suite.
func scale(sizes []int, suite Suite) []int {
	if suite != SuiteQuick {
		return sizes
	}
	out := make([]int, 0, len(sizes))
	for _, n := range sizes {
		if n <= 256 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = append(out, sizes[0])
	}
	return out
}

// Experiments returns the full registry, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Description: "regular languages are O(n) bits (Theorem 1/6)",
			Run: func(s Suite) (*Table, error) { return ExperimentE1(scale(LinearSizes, s)) }},
		{ID: "E2", Description: "non-regular languages are Ω(n log n) bits (Theorem 4/5)",
			Run: func(s Suite) (*Table, error) { return ExperimentE2(scale(LinearSizes, s)) }},
		{ID: "E2b", Description: "information-state counting (Theorems 2/4 machinery)",
			Run: func(s Suite) (*Table, error) { return ExperimentE2b(scale(TraceSizes, s)) }},
		{ID: "E3", Description: "{wcw} is Θ(n²) bits (Section 7 note 1)",
			Run: func(s Suite) (*Table, error) { return ExperimentE3(scale(QuadraticSizes, s)) }},
		{ID: "E4", Description: "{0^k1^k2^k} is O(n log n) bits (Section 7 note 2)",
			Run: func(s Suite) (*Table, error) { return ExperimentE4(scale(LinearSizes, s)) }},
		{ID: "E5", Description: "the Θ(g(n)) hierarchy (Section 7 note 3)",
			Run: func(s Suite) (*Table, error) { return ExperimentE5(scale(HierarchySizes, s)) }},
		{ID: "E6", Description: "known n removes the n log n term (Section 7 note 4)",
			Run: func(s Suite) (*Table, error) { return ExperimentE6(scale(HierarchySizes, s)) }},
		{ID: "E7", Description: "passes vs bits trade-off (Section 7 note 5)",
			Run: func(s Suite) (*Table, error) {
				ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
				n := ParityRingSize
				if s == SuiteQuick {
					ks = []int{1, 2, 3, 4}
					n = 64
				}
				return ExperimentE7(ks, n)
			}},
		{ID: "E8", Description: "line simulation overhead (Theorem 7 Stage 1)",
			Run: func(s Suite) (*Table, error) { return ExperimentE8(scale(HierarchySizes, s)) }},
		{ID: "E9", Description: "leader election substrate ([DKR])",
			Run: func(s Suite) (*Table, error) { return ExperimentE9(scale(HierarchySizes, s)) }},
		{ID: "E10", Description: "TM → ring transformation (Section 8)",
			Run: func(s Suite) (*Table, error) { return ExperimentE10(scale(TMSizes, s)) }},
		{ID: "E11", Description: "extensions: Dyck + aggregate functions at the n log n floor",
			Run: func(s Suite) (*Table, error) { return ExperimentE11(scale(LinearSizes, s)) }},
		{ID: "E12", Description: "extensions: bidirectional election (Hirschberg–Sinclair)",
			Run: func(s Suite) (*Table, error) { return ExperimentE12(scale(HierarchySizes, s)) }},
		{ID: "E13", Description: "schedule axis: algorithms × sizes × delivery schedules agree on bits",
			Run: func(s Suite) (*Table, error) { return ExperimentE13(scale([]int{33, 99, 201}, s)) }},
		{ID: "E15", Description: "large-ring engine: serial vs sharded time/alloc trajectory (count, n to 2^20)",
			Run: func(s Suite) (*Table, error) {
				sizes := ScaleSizes
				if s == SuiteQuick {
					// Keep the quick suite CI-speed but still past the
					// pre-sizing threshold where reuse matters.
					sizes = []int{1 << 12, 1 << 16}
				}
				return ExperimentE15(sizes, s)
			}},
		{ID: "E16", Description: "prefix checkpoints: warm vs cold ns/word on shared-prefix corpora (majority, sequential)",
			Run: func(s Suite) (*Table, error) {
				sizes := PrefixSizes
				if s == SuiteQuick {
					// One CI-speed cell, at the n=4096 point the acceptance
					// speedup is stated for.
					sizes = []int{1 << 12}
				}
				return ExperimentE16(sizes, s)
			}},
		{ID: "E17", Description: "fault axis: lossy/duplicating/crash schedules + elect-then-recognize overhead",
			Run: func(s Suite) (*Table, error) {
				sizes := FaultSizes
				if s == SuiteQuick {
					// Two CI-speed sizes; the fault invariants the sweep
					// hard-checks are size-independent.
					sizes = FaultSizes[:2]
				}
				return ExperimentE17(sizes)
			}},
		{ID: "A1", Description: "ablation: counter encodings",
			Run: func(s Suite) (*Table, error) { return ExperimentA1(scale(HierarchySizes, s)) }},
		{ID: "A2", Description: "ablation: DFA minimization",
			Run: func(s Suite) (*Table, error) { return ExperimentA2(scale(HierarchySizes, s)) }},
	}
}

// IDs returns every experiment identifier in order.
func IDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, known)
}

// RunAllTables runs every experiment, renders the tables to w and returns
// them, so callers can post-process them (cmd/ringbench -json collects their
// BenchRecords). Each table is rendered as its experiment completes, so a
// run canceled through SetDefaultContext still leaves every finished table
// on w; the tables rendered so far are returned with the error of the
// canceled experiment, which wraps ring.ErrCanceled.
func RunAllTables(w io.Writer, suite Suite) ([]*Table, error) {
	var tables []*Table
	for _, e := range Experiments() {
		if err := defaultCtx.Err(); err != nil {
			return tables, fmt.Errorf("bench: %w: %w", ring.ErrCanceled, err)
		}
		table, err := e.Run(suite)
		if err != nil {
			return tables, fmt.Errorf("bench: %s: %w", e.ID, err)
		}
		if err := table.Render(w); err != nil {
			return tables, err
		}
		tables = append(tables, table)
	}
	return tables, nil
}
