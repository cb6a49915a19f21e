package bench

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchRecord is one machine-readable measurement of a sweep cell. Tables
// that time their runs (E15) attach one record per cell; `ringbench -json`
// collects them across the experiments that ran and writes one document, so
// perf trajectories can be diffed commit over commit instead of eyeballed
// from rendered tables.
type BenchRecord struct {
	// Experiment is the table's identifier (e.g. "E15").
	Experiment string `json:"experiment"`
	// Algorithm is the recognizer name (core catalog).
	Algorithm string `json:"algorithm"`
	// Schedule is the delivery schedule / engine name of the cell.
	Schedule string `json:"schedule"`
	// N is the ring size.
	N int `json:"n"`
	// Bits and Messages are the engine-accounted totals of one run.
	Bits     int `json:"bits"`
	Messages int `json:"messages"`
	// NsPerOp is the wall-clock nanoseconds per full recognition run,
	// averaged over the cell's timed iterations.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the whole heap allocations per run in the steady state
	// (the run state is warmed before timing): the timed runs' allocations
	// divided by their count with integer division, as testing.AllocsPerRun
	// does, so a stray background allocation cannot move it by a fraction.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// AddRecord attaches a machine-readable record to the table.
func (t *Table) AddRecord(r BenchRecord) {
	r.Experiment = t.ID
	t.Records = append(t.Records, r)
}

// RecordSet is the top-level shape of a `ringbench -json` document.
type RecordSet struct {
	// Suite is "full" or "quick".
	Suite string `json:"suite"`
	// Records are the collected measurements, in experiment-then-row order.
	Records []BenchRecord `json:"records"`
}

// WriteRecordsJSON writes the records of the given tables as one indented
// JSON document. Tables without records (the purely analytical experiments)
// contribute nothing; the document is deterministic for a fixed machine —
// only ns_per_op varies run to run, and allocs_per_op only where worker
// goroutines allocate on their own schedule (E15's sharded cells).
func WriteRecordsJSON(w io.Writer, suite Suite, tables []*Table) error {
	set := RecordSet{Suite: "full", Records: []BenchRecord{}}
	if suite == SuiteQuick {
		set.Suite = "quick"
	}
	for _, t := range tables {
		set.Records = append(set.Records, t.Records...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&set); err != nil {
		return fmt.Errorf("bench: encode records: %w", err)
	}
	return nil
}
