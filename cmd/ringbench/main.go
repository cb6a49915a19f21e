// Command ringbench regenerates the experiment tables (E1–E13, E15–E17, A1–A2).
//
// Usage:
//
//	ringbench               # run every experiment (full sweep)
//	ringbench -quick        # run every experiment with reduced sizes
//	ringbench -e E3,E7      # run selected experiments
//	ringbench -e E13        # the full-factorial schedule sweep
//	ringbench -schedule adversarial -e E1   # rerun a sweep under another schedule
//	ringbench -workers 0 -e E13             # fan sweep cells over all CPUs
//	ringbench -e E17         # the fault axis: lossy/duplicating/crash + elect-then-recognize
//	ringbench -e E15,E16,E17 -json BENCH_engine.json  # engine sweeps, machine-readable
//	ringbench -list         # list experiments plus the algorithm/language/schedule catalogs
//
// -workers selects how many goroutines the sweeps fan their (size × schedule)
// cells across: 1 (the default) runs serially, 0 uses one worker per CPU, any
// other value that many workers. Results are bit-identical at every setting.
//
// Ctrl-C (or SIGTERM) cancels the run mid-sweep: the tables of the
// experiments that already completed stay on stdout, and the interrupted run
// exits with a "canceled" summary instead of half a table.
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
	"ringlang/internal/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bench.SetDefaultContext(ctx)
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, ringlang.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "ringbench: canceled — the tables above are the experiments that completed")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ringbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringbench", flag.ContinueOnError)
	var (
		quick      = fs.Bool("quick", false, "use reduced sweep sizes")
		list       = fs.Bool("list", false, "list experiments and the algorithm/language/schedule catalogs, then exit")
		experiment = fs.String("e", "", "comma-separated experiment identifiers (default: all)")
		plot       = fs.Bool("plot", false, "render the headline log-log scaling figure and exit")
		schedule   = fs.String("schedule", "", "delivery schedule for sweeps that do not pin their own engine (see ringbench -list)")
		seed       = fs.Int64("seed", 0, "seed for seeded schedules (random and the fault schedules)")
		workers    = fs.Int("workers", 1, "worker goroutines for sweep fan-out (1 = serial, 0 = one per CPU)")
		jsonPath   = fs.String("json", "", "write the machine-readable records of the experiments that produce them (E15, E16, E17) to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed != 0 && !ringlang.ScheduleUsesSeed(*schedule) {
		return fmt.Errorf("-seed only takes effect with a seeded -schedule (random or a fault schedule; got %q)", *schedule)
	}
	if *schedule != "" {
		if err := bench.SetDefaultSchedule(*schedule, *seed); err != nil {
			return err
		}
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", *workers)
	}
	bench.SetDefaultWorkers(*workers)
	suite := bench.SuiteFull
	if *quick {
		suite = bench.SuiteQuick
	}
	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-4s %s\n", e.ID, e.Description)
		}
		// The catalogs print from ringlang.CurrentCatalog — the same source
		// ringserve serves at /v1/catalog and CI diffs against the README
		// table, so none of the three can drift from the others.
		catalog := ringlang.CurrentCatalog()
		fmt.Println("algorithms:")
		for _, name := range catalog.Algorithms {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("languages:")
		for _, name := range catalog.Languages {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("schedules:")
		for _, name := range catalog.Schedules {
			fmt.Printf("  %s\n", name)
		}
		return nil
	}
	if *plot {
		sizes := []int{64, 128, 256, 512, 1024, 2048}
		if *quick {
			sizes = []int{32, 64, 128, 256}
		}
		figure, err := bench.ScalingFigure(sizes)
		if err != nil {
			return err
		}
		fmt.Println("Figure: the three complexity classes of the paper (log-log; slopes 1, ~1.1, 2)")
		fmt.Print(figure)
		return nil
	}
	var tables []*bench.Table
	if *experiment == "" {
		tables, err := bench.RunAllTables(os.Stdout, suite)
		if err != nil {
			return err
		}
		return writeRecords(*jsonPath, suite, tables)
	}
	for _, id := range strings.Split(*experiment, ",") {
		e, err := bench.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		table, err := e.Run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := table.Render(os.Stdout); err != nil {
			return err
		}
		tables = append(tables, table)
	}
	return writeRecords(*jsonPath, suite, tables)
}

// writeRecords writes the tables' machine-readable records to path as one
// JSON document (see bench.WriteRecordsJSON); an empty path means no output.
func writeRecords(path string, suite bench.Suite, tables []*bench.Table) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteRecordsJSON(f, suite, tables); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
