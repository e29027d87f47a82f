// Command experiments regenerates the experiment tables E1–E14 described in
// EXPERIMENTS.md: E1–E10 reproduce the quantitative claims of the paper,
// E11 is the million-node scale experiment, E12 is the churn-tolerance
// experiment (incremental repair vs full rerun under fault epochs), E13 is
// the serving-plane load experiment (closed-loop mixes against the
// warm-session server), and E14 is the chaos experiment (overload shedding,
// deadline storms, panic quarantine, graceful drain). E11–E14 carry
// wall-clock/throughput/peak-RSS columns that are inherently
// machine-dependent, hence excluded from byte-identity guarantees. The sweeps are executed by the declarative grid
// engine (internal/sweep): every workload × algorithm cell fans out
// over -jobs workers, and the generated tables are byte-identical for every
// -jobs value up to the self-profiling wall-clock note each one ends with.
//
// Example:
//
//	experiments                 # run everything at full size
//	experiments -quick          # small sweeps (seconds)
//	experiments -only E3,E6     # a subset (unknown IDs are an error)
//	experiments -jobs 1         # disable the grid fan-out
//	experiments -json           # JSON-lines records instead of text tables
//	experiments -csv out/       # also write one CSV per experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"d2color/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		quick   = fs.Bool("quick", false, "run reduced sweeps")
		seed    = fs.Uint64("seed", 1, "random seed")
		reps    = fs.Int("reps", 0, "repetitions for randomized measurements (0 = default)")
		only    = fs.String("only", "", "comma-separated experiment IDs (default: all)")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV files")
		asJSON  = fs.Bool("json", false, "emit JSON-lines records instead of text tables")
		jobs    = fs.Int("jobs", 0, "worker pool that fans out the sweep grids' cells (0 = GOMAXPROCS, 1 = sequential); tables are identical for every value apart from their wall-clock note")
		workers = fs.Int("workers", 1, "CONGEST engine workers for the simulations when the grid is sequential (-jobs 1); identical tables, different wall clock")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := harness.Config{Quick: *quick, Seed: *seed, Repetitions: *reps, Workers: *workers, Jobs: *jobs}

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	sinks := []harness.Sink{harness.TextSink{W: stdout}}
	if *asJSON {
		sinks = []harness.Sink{harness.JSONLSink{W: stdout}}
	}
	if *csvDir != "" {
		// Fail on an uncreatable directory before any sweep runs, not after
		// the first experiment finishes.
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		sinks = append(sinks, harness.CSVDirSink{Dir: *csvDir})
	}
	return harness.Run(cfg, ids, harness.MultiSink(sinks...))
}
