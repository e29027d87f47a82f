// Command perfbench is the repository benchmark: closed-loop workloads over
// the solver and the serving plane, each run from one seed, with every
// output checked and every metric printed by name, unit and sample count.
//
//	perfbench --workload solve|serve-query|serve-churn --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics; with --trace 1 the run measures the same untraced
// phase, then a traced phase and a kernel replay, prints the per-workload
// layer table and reports the per-layer metrics instead. NOTES.md explains
// the workloads and the metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     sizes
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// outDir receives the traced run's span file ("" skips writing it).
	outDir string
	log    io.Writer
}

// sizes fixes the workload shapes; the smoke test shrinks them.
type sizes struct {
	solveN         int
	solveDeg       float64
	querySessions  int
	queryN, queryM int
	churnN         int
	churnDeg       float64
	// warmOps is the number of untimed warm-up requests per serve client.
	warmOps int
}

// solveN is 4000: Δ stays about 24 (Δ² ≈ 600, as at n = 20 000), a run holds
// over a hundred solves per algorithm, and the distance-2 view fits a core's
// L2, so co-tenant cache pressure moves the medians less. At n = 20 000 the
// solve medians spread 25–30% across runs on a shared 2-vCPU host; at 4000,
// 5–13%.
var fullSizes = sizes{
	solveN: 4000, solveDeg: 10,
	querySessions: 8, queryN: 2000, queryM: 3,
	churnN: 100000, churnDeg: 8,
	warmOps: 300,
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one reported figure. samples is the number of observations it
// was computed from; meaning says what it is on this workload.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	meaning string
}

// report is one workload run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	// invalid lists output-check failures: an invalid coloring, a served
	// hash differing from the direct run, an incomplete repair.
	invalid []string
	e2e     []metric
	layers  []metric
	table   []string
}

func (r *report) correct() bool { return len(r.invalid) == 0 }

// fail records one failed output check (kept short: the first few only).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.invalid) < 8 {
		r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
	} else if len(r.invalid) == 8 {
		r.invalid = append(r.invalid, "...")
	}
}

var workloads = map[string]func(config) (*report, error){
	"solve":       runSolve,
	"serve-query": func(c config) (*report, error) { return runServe(c, queryShape(c)) },
	"serve-churn": func(c config) (*report, error) { return runServe(c, churnShape(c)) },
}

func main() {
	workload := flag.String("workload", "", "solve, serve-query or serve-churn")
	seed := flag.Uint64("seed", 1, "workload seed: fixes graphs, solve seeds and op schedules")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 adds the traced phase and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload solve|serve-query|serve-churn, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     fullSizes,
		setups:   5,
		outDir:   *outDir,
		log:      os.Stderr,
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, cfg.trace)
	if !rep.correct() {
		os.Exit(1)
	}
}

// print writes the human-readable metric and layer tables, then the result
// object as the last line.
func (r *report) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, msg := range r.invalid {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", msg)
	}
	printMetrics(w, "end-to-end", r.e2e)
	if trace {
		for _, line := range r.table {
			fmt.Fprintln(w, line)
		}
		printMetrics(w, "per-layer", r.layers)
	}
	shown := r.e2e
	if trace {
		shown = r.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range shown {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	fmt.Fprintf(w, "  %-24s %14s %-6s %8s  %s\n", "name", "value", "unit", "samples", "meaning")
	for _, m := range ms {
		fmt.Fprintf(w, "  %-24s %14.6g %-6s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.meaning)
	}
}

// logf reports progress on stderr, keeping stdout for results.
func (c config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, "perfbench: "+format+"\n", args...)
	}
}

// latencyMetric builds one latency of the end-to-end set. Every workload
// reports the same names; each fills the lat_a/lat_b/lat_c slots with its
// own op kinds (see NOTES.md).
func latencyMetric(name, meaning string, s samples, q float64) metric {
	return metric{name: name, value: s.quantile(q), unit: "ms", samples: len(s), meaning: meaning}
}
