// Command ringvet runs the repo-specific static-analysis suite
// (internal/analysis) over the module: ringdeterminism, the
// interprocedural dataflow tier (allocflow, shardsafe, snapshotpure),
// ctxflow and errsentinel. It is the static face of the invariant
// enforcement the runtime guards (goldens, alloc-regression tests,
// cross-engine property tests) provide dynamically, and runs as a required
// CI step.
//
// All matched packages are type-checked and analyzed as ONE program, so the
// interprocedural analyzers see every cross-package call edge (a hot root
// in internal/exec propagates into internal/ring).
//
// Usage:
//
//	go run ./cmd/ringvet [-tests=false] [-list] [-json] \
//	    [-baseline file] [-write-baseline] [packages...]
//
// Packages default to ./... (testdata fixture packages are always skipped).
// A baseline file suppresses its recorded findings — matched by file,
// analyzer and message, independent of line numbers — so the suite can be
// adopted ratchet-style: existing debt is frozen, new findings still fail,
// and CI enforces that the checked-in baseline only ever shrinks.
// -write-baseline rewrites the file from the current findings.
//
// Exit status: 0 clean (or every finding baselined), 1 findings, 2 load or
// internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ringlang/internal/analysis"
	"ringlang/internal/analysis/load"
)

func main() {
	os.Exit(run())
}

func run() int {
	tests := flag.Bool("tests", true, "also analyze _test.go files (test-augmented package variants)")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	jsonOut := flag.Bool("json", false, "emit the findings report as JSON on stdout")
	baselinePath := flag.String("baseline", "", "baseline file; findings recorded there (by file, analyzer, message) are suppressed")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the -baseline file from the current findings and exit clean")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ringvet [-tests=false] [-list] [-json] [-baseline file] [-write-baseline] [packages...]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		printSuite(flag.CommandLine.Output())
	}
	flag.Parse()

	if *list {
		printSuite(os.Stdout)
		return 0
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "ringvet: -write-baseline requires -baseline")
		return 2
	}

	pkgs, err := load.Load(".", *tests, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
		return 2
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
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "ringvet: no packages matched")
		return 2
	}
	diags, err := analysis.RunProgram(targets, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
		return 2
	}

	wd, _ := os.Getwd()
	all := make([]finding, 0, len(diags))
	fset := targets[0].Fset // shared across every package of one Load call
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) {
				name = filepath.ToSlash(rel)
			}
		}
		all = append(all, finding{
			File:     name,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}

	if *writeBaseline {
		if err := writeBaselineFile(*baselinePath, all); err != nil {
			fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "ringvet: wrote %d finding(s) to %s\n", len(all), *baselinePath)
		return 0
	}

	report := report{Findings: []finding{}}
	allowed := make(map[baselineKey]int)
	if *baselinePath != "" {
		entries, err := readBaselineFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
			return 2
		}
		for _, e := range entries {
			n := e.Count
			if n <= 0 {
				n = 1
			}
			allowed[e.key()] += n
		}
	}
	for _, f := range all {
		k := f.key()
		if allowed[k] > 0 {
			allowed[k]--
			report.Baselined++
			continue
		}
		report.Findings = append(report.Findings, f)
	}
	for k, n := range allowed {
		for ; n > 0; n-- {
			report.Stale = append(report.Stale, baselineEntry{File: k.file, Analyzer: k.analyzer, Message: k.message})
		}
	}
	sortEntries(report.Stale)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "ringvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range report.Findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	for _, e := range report.Stale {
		fmt.Fprintf(os.Stderr, "ringvet: stale baseline entry (finding no longer produced): %s [%s] %q\n", e.File, e.Analyzer, e.Message)
	}
	if len(report.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "ringvet: shrink the baseline with -write-baseline (the ratchet only ever tightens)\n")
	}
	if report.Baselined > 0 {
		fmt.Fprintf(os.Stderr, "ringvet: %d finding(s) suppressed by baseline %s\n", report.Baselined, *baselinePath)
	}
	if n := len(report.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "ringvet: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// finding is one rendered diagnostic; the JSON field names are the CI
// artifact's schema.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report is the -json output: new findings, how many the baseline absorbed,
// and baseline entries nothing matched (debt that was paid off).
type report struct {
	Findings  []finding       `json:"findings"`
	Baselined int             `json:"baselined,omitempty"`
	Stale     []baselineEntry `json:"stale_baseline,omitempty"`
}

// baselineKey matches findings position-independently: edits that move a
// known finding around a file do not churn the baseline.
type baselineKey struct {
	file, analyzer, message string
}

func (f finding) key() baselineKey { return baselineKey{f.File, f.Analyzer, f.Message} }

// baselineEntry is one frozen finding; Count collapses duplicates (the same
// message at several lines of one file).
type baselineEntry struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Count    int    `json:"count,omitempty"`
}

func (e baselineEntry) key() baselineKey { return baselineKey{e.File, e.Analyzer, e.Message} }

type baselineFile struct {
	Findings []baselineEntry `json:"findings"`
}

func readBaselineFile(path string) ([]baselineEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return bf.Findings, nil
}

func writeBaselineFile(path string, findings []finding) error {
	counts := make(map[baselineKey]int)
	for _, f := range findings {
		counts[f.key()]++
	}
	bf := baselineFile{Findings: []baselineEntry{}}
	for k, n := range counts {
		e := baselineEntry{File: k.file, Analyzer: k.analyzer, Message: k.message}
		if n > 1 {
			e.Count = n
		}
		bf.Findings = append(bf.Findings, e)
	}
	sortEntries(bf.Findings)
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortEntries(entries []baselineEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func printSuite(w io.Writer) {
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "  %-16s %s\n", a.Name, a.Doc)
	}
}
