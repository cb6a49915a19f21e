// Command ringrun executes one recognition algorithm on one word and prints
// the verdict together with the exact bit accounting.
//
// Usage:
//
//	ringrun -algorithm three-counters -word 001122
//	ringrun -algorithm regular-one-pass -language even-ones -word 0110
//	ringrun -algorithm compare-wcw -word abcab -schedule random -seed 3 -trace
//	ringrun -algorithm three-counters -word 001122 -schedule adversarial
//	ringrun -algorithm three-counters -word 001122 -schedule random -seed 7
//	ringrun -algorithm three-counters -words 001122,012012,001212 -workers 0
//	ringrun -list
//
// -words runs a whole batch (comma-separated) through a ringlang.Client
// worker pool and prints one accounting line per word; -workers sets the
// pool size (0 = one worker per CPU, the default). Batch runs cannot record
// traces. -prefix-cache gives the client a prefix-checkpoint cache of that
// many bytes, so batch words sharing prefixes resume from stored engine
// checkpoints instead of recomputing them (prefix-stable schedules only;
// reports are bit-identical either way).
//
// Ctrl-C (or SIGTERM) cancels the run: a batch stops dispatching, the words
// already finished are still printed, and the canceled ones are marked.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ringlang"
	"ringlang/internal/ring"
	"ringlang/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, ringlang.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "ringrun: canceled")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ringrun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("ringrun", flag.ContinueOnError)
	var (
		algorithm = fs.String("algorithm", "", "algorithm name (see -list)")
		language  = fs.String("language", "", "language argument for algorithms that need one")
		word      = fs.String("word", "", "the pattern on the ring (one letter per processor, leader first)")
		schedule  = fs.String("schedule", "sequential", "delivery schedule (see -list)")
		seed      = fs.Int64("seed", 0, "seed for seeded schedules (random and the fault schedules)")
		withTrace = fs.Bool("trace", false, "print per-execution analysis (passes, token property, information states)")
		list      = fs.Bool("list", false, "list algorithm, language and schedule names and exit")
		words     = fs.String("words", "", "comma-separated words to run as a parallel batch (instead of -word)")
		workers   = fs.Int("workers", 0, "worker goroutines for -words batches (0 = one per CPU)")
		prefix    = fs.Int64("prefix-cache", 0, "prefix-checkpoint cache budget in bytes (0 = off); batch words sharing prefixes resume from stored engine checkpoints")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, "algorithms:")
		for _, name := range ringlang.AlgorithmNames() {
			fmt.Fprintf(out, "  %s\n", name)
		}
		fmt.Fprintln(out, "languages:")
		for _, name := range ringlang.LanguageNames() {
			fmt.Fprintf(out, "  %s\n", name)
		}
		fmt.Fprintln(out, "schedules:")
		for _, name := range ringlang.ScheduleNames() {
			fmt.Fprintf(out, "  %s\n", name)
		}
		return nil
	}
	if *algorithm == "" || (*word == "" && *words == "") {
		return fmt.Errorf("-algorithm plus -word or -words are required (try -list)")
	}
	if *word != "" && *words != "" {
		return fmt.Errorf("-word and -words are mutually exclusive")
	}
	if *seed != 0 && !ringlang.ScheduleUsesSeed(*schedule) {
		return fmt.Errorf("-seed only takes effect with a seeded schedule (random or a fault schedule; got %q)", *schedule)
	}
	client, err := ringlang.NewClient(*algorithm, *language,
		ringlang.WithSchedule(*schedule),
		ringlang.WithSeed(*seed),
		ringlang.WithWorkers(*workers),
		ringlang.WithTrace(*withTrace),
		ringlang.WithPrefixCache(*prefix))
	if err != nil {
		return err
	}
	if *words != "" {
		if *withTrace {
			return fmt.Errorf("-trace is not available for -words batches")
		}
		return runBatch(ctx, out, client, strings.Split(*words, ","))
	}
	w := ringlang.WordFromString(*word)
	report, err := client.Recognize(ctx, w)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "algorithm : %s\n", report.Algorithm)
	fmt.Fprintf(out, "language  : %s\n", report.LanguageName)
	fmt.Fprintf(out, "schedule  : %s\n", report.Schedule)
	fmt.Fprintf(out, "word      : %q (n=%d)\n", w.String(), len(w))
	fmt.Fprintf(out, "verdict   : %s (language says member=%v)\n", report.Verdict, report.Member)
	fmt.Fprintf(out, "messages  : %d\n", report.Messages)
	fmt.Fprintf(out, "bits      : %d  (bits/n = %.2f, max message = %d bits)\n",
		report.Bits, report.BitsPerProcessor, report.MaxMessageBits)
	if f := report.Faults; f != nil {
		// Fault schedules report the transport overhead the accounting above
		// deliberately excludes: the totals are what the algorithm sent.
		fmt.Fprintf(out, "faults    : dropped=%d retransmit=%db duplicates=%d (+%db) crashed=%v rerouted=%d deferred=%d\n",
			f.Dropped, f.RetransmitBits, f.Duplicates, f.DuplicateBits, f.Crashed, f.Rerouted, f.Deferred)
	}
	if *withTrace {
		res := &ring.Result{Verdict: report.Verdict, Stats: report.Stats, Trace: report.Trace}
		analysis, err := trace.BuildReport(res, traceInputs(w))
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "--- execution analysis ---")
		if err := analysis.Render(out); err != nil {
			return err
		}
	}
	return nil
}

// runBatch fans the words over the client's worker pool and prints one
// accounting line per word, in input order. Canceled words (Ctrl-C) are
// marked, and the lines of the words that did complete are still printed.
func runBatch(ctx context.Context, out *os.File, client *ringlang.Client, raw []string) error {
	words := make([]ringlang.Word, len(raw))
	for i, s := range raw {
		words[i] = ringlang.WordFromString(strings.TrimSpace(s))
	}
	fmt.Fprintf(out, "algorithm : %s\n", client.AlgorithmName())
	fmt.Fprintf(out, "language  : %s\n", client.LanguageName())
	fmt.Fprintf(out, "schedule  : %s\n", client.ScheduleName())
	fmt.Fprintf(out, "%-20s %-8s %-8s %10s %10s %8s\n", "word", "verdict", "member", "messages", "bits", "bits/n")
	var firstErr error
	completed, canceled := 0, 0
	for i, r := range client.Batch(ctx, words) {
		w := words[i]
		if r.Err != nil {
			if errors.Is(r.Err, ringlang.ErrCanceled) {
				canceled++
				fmt.Fprintf(out, "%-20q canceled\n", w.String())
				continue
			}
			fmt.Fprintf(out, "%-20q %v\n", w.String(), r.Err)
			if firstErr == nil {
				firstErr = fmt.Errorf("word %d (%q): %w", i, w.String(), r.Err)
			}
			continue
		}
		completed++
		fmt.Fprintf(out, "%-20q %-8s %-8v %10d %10d %8.2f\n",
			w.String(), r.Report.Verdict, r.Report.Member,
			r.Report.Messages, r.Report.Bits, r.Report.BitsPerProcessor)
	}
	if canceled > 0 {
		fmt.Fprintf(out, "canceled: %d of %d words completed before the interrupt\n", completed, len(words))
		if firstErr == nil {
			firstErr = fmt.Errorf("%d of %d words canceled: %w", canceled, len(words), ringlang.ErrCanceled)
		}
	}
	if st, ok := client.PrefixStats(); ok {
		fmt.Fprintf(out, "prefix cache: %d hits, %d partial, %d misses (%d checkpoints, %d bytes)\n",
			st.Hits, st.PartialHits, st.Misses, st.Entries, st.Bytes)
	}
	return firstErr
}

func traceInputs(w ringlang.Word) []string {
	out := make([]string, len(w))
	for i, letter := range w {
		out[i] = string(letter)
	}
	return out
}
