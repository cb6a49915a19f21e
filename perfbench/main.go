// Command perfbench is the repository's benchmark. With -trace 0 it starts
// ringserve as its own process on a loopback port, drives it over HTTP with
// one of two seeded workloads, checks every answer and prints the
// end-to-end metrics. With -trace 1 it replays the same workload in process,
// layer by layer, and prints the per-layer metrics. README.md describes the
// workloads, the metrics and the ledger.
//
// run.sh builds ringserve and this program from the checkout and runs it:
//
//	bash perfbench/run.sh --workload hot-recognize --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// The line before it is the run's record: the host and build stamp, the
// workload's measured input shares, the cache counters and the raw samples
// behind the medians.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	root      string
	serverBin string
	conns     int
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the host, the build and the run's settings.
type stamp struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Trace          int      `json:"trace"`
	Seconds        int      `json:"seconds"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	NProc          int      `json:"nproc"`
	CPUModel       string   `json:"cpu_model"`
	GoVersion      string   `json:"go_version"`
	Commit         string   `json:"commit"`
	SourceSHA256   string   `json:"source_sha256"`
	RingserveFlags []string `json:"ringserve_flags,omitempty"`
	Connections    int      `json:"connections"`
	OfferedRate    int      `json:"offered_rate_per_s"` // 0: a closed loop, as every workload is
}

// runBudget bounds the HTTP traffic of an end-to-end run, set-ups included.
const runBudget = 150 * time.Second

// exitWrongAnswer is the exit code of a run that printed its result with
// correct = false; 1 means the run could not measure.
const exitWrongAnswer = 2

func main() {
	os.Exit(run())
}

func run() int {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st := newStamp(o)
	var (
		res    result
		record map[string]any
	)
	if o.trace == 0 {
		// A server that stops answering fails the run instead of hanging it.
		ctx, cancel := context.WithTimeout(context.Background(), runBudget)
		defer cancel()
		rec, err := runEndToEnd(ctx, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		st.RingserveFlags = rec.flags
		res = result{
			Correct:   rec.check.wrong == 0,
			Attempted: rec.check.words,
			Failed:    rec.check.failed + rec.check.wrong,
			Metrics:   e2eMetrics(rec),
		}
		record = e2eRecordJSON(rec)
	} else {
		tr, err := runTraced(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		st.GOMAXPROCS = runtime.GOMAXPROCS(0)
		res = result{
			Correct:   tr.check.wrong == 0,
			Attempted: tr.check.words,
			Failed:    tr.check.failed + tr.check.wrong,
			Metrics:   tr.metrics,
		}
		record = tr.record
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no words were attempted")
		return 1
	}
	emit(st, record, res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers; see the record line")
		return exitWrongAnswer
	}
	return 0
}

func parseOptions(args []string) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed")
	fl.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end run against ringserve; 1: in-process traced run")
	fl.StringVar(&o.root, "root", ".", "checkout root")
	fl.StringVar(&o.serverBin, "server", "", "ringserve binary (end-to-end runs)")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	o.conns = runtime.NumCPU()
	switch {
	case o.seconds < 1:
		return o, errors.New("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return o, errors.New("-trace must be 0 or 1")
	case o.trace == 0 && o.serverBin == "":
		return o, errors.New("-server is required for an end-to-end run")
	}
	if _, err := newGenerator(o.workload, o.seed); err != nil {
		return o, err
	}
	return o, nil
}

// emit prints the record line, then the result line.
func emit(st stamp, record map[string]any, res result) {
	record["stamp"] = st
	line, err := json.Marshal(map[string]any{"perfbench_record": record})
	if err != nil {
		panic(err) // plain numbers, strings and slices always marshal
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

func newStamp(o options) stamp {
	return stamp{
		Workload:     o.workload,
		Seed:         o.seed,
		Trace:        o.trace,
		Seconds:      o.seconds,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(o.root),
		SourceSHA256: sourceDigest(o.root),
		Connections:  o.conns,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "" when the checkout is not a git
// repository of its own.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every go.mod and .go file of the checkout, so a run
// outside git still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
