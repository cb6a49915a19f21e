// Package bench is the experiment harness: it generates workloads, sweeps
// ring sizes and parameters, runs the core recognizers on the ring engines,
// and renders one table per experiment — E1–E13 for the paper's claims and
// the extensions, E15 for the large-ring engine's time/alloc trajectory, E16
// for the prefix-checkpoint warm-vs-cold reuse sweep, E17 for the fault
// axis, plus the design ablations A1–A2 (see DESIGN.md). The cmd/ringbench
// tool and the repository-root benchmarks are thin wrappers around this
// package, so every table can be regenerated from one place.
//
// Entry points: Experiments/ByID/RunAllTables enumerate and run the registry;
// MeasureRecognizer and MeasureOne sweep one recognizer under MeasureOptions
// (word kind, engine or schedule+seed, worker fan-out, context); the
// SetDefault* knobs are how cmd/ringbench routes its -schedule/-workers
// flags and signal context into every sweep. Pooled sweeps
// (MeasureOptions.Workers) run through a ringlang.Client batch and are
// bit-identical to serial sweeps.
//
// The paper is a theory paper with no numeric tables of its own; the
// "shape" each experiment must reproduce is the asymptotic claim of the
// corresponding theorem or remark, which the tables expose through normalized
// columns (bits/n, bits/(n log n), bits/n²) and log-log slope fits.
package bench
