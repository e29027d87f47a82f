// Command graphgen generates one of the workload graphs and prints either a
// structural summary or the full edge list, so that the workloads used by the
// experiments can be inspected or exported to other tools.
//
// For generator kinds with a closed-form expected size, graphgen first
// prints the estimated resident bytes of simulating on the graph — the CSR,
// the 32-bit engine's message plane and inbox arena, and the coloring —
// before paying the generation cost, so a 10⁷-node spec can be
// sized against a machine's memory in milliseconds.
//
// Example:
//
//	graphgen -graph unitdisk -n 200 -p 0.15 -stats
//	graphgen -graph gnp-avg -n 10000000 -p 8 -estimate -stats=false
//	graphgen -graph cliquechain -n 5 -m 8 -edges > chain.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"d2color/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		kind     = fs.String("graph", "gnp", "graph generator kind (see cmd/d2color)")
		n        = fs.Int("n", 256, "primary size parameter")
		m        = fs.Int("m", 0, "secondary size parameter")
		degree   = fs.Int("degree", 8, "degree-like parameter")
		p        = fs.Float64("p", 0.05, "probability / radius parameter")
		seed     = fs.Int64("seed", 1, "random seed")
		edges    = fs.Bool("edges", false, "print the edge list (u v per line)")
		stats    = fs.Bool("stats", true, "print structural statistics")
		estimate = fs.Bool("estimate", true, "print the estimated resident bytes of simulating on the spec before generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := graph.GeneratorSpec{Kind: *kind, N: *n, M: *m, Degree: *degree, P: *p, Seed: *seed}
	w := bufio.NewWriter(out)
	defer w.Flush()
	if *estimate {
		if en, em, ok := expectedSize(spec); ok {
			printResidentEstimate(w, spec, en, em)
			w.Flush() // the estimate is useful even if generation then takes minutes
		}
	}
	if !*stats && !*edges {
		return nil
	}
	g, err := spec.Generate()
	if err != nil {
		return err
	}
	if *stats {
		// Every distance-2 statistic below (Δ(G²), avg d2-degree, m(G²))
		// comes from the streaming Dist2View — sizing a workload's square no
		// longer materializes it.
		st := graph.ComputeStats(g)
		fmt.Fprintf(w, "# %s\n# %s\n", spec.String(), st.String())
		fmt.Fprintf(w, "# d2: Δ(G²)=%d avg(G²)=%.2f m(G²)=%d palette Δ²+1=%d\n",
			st.MaxDist2Deg, st.AvgDist2Deg, st.Dist2Edges, st.SquaredBound+1)
	}
	if *edges {
		for _, e := range g.Edges() {
			fmt.Fprintf(w, "%d %d\n", e.U, e.V)
		}
	}
	return nil
}

// expectedSize returns the spec's expected node and undirected-edge counts in
// closed form for the kinds where one exists (random kinds: in expectation).
func expectedSize(s graph.GeneratorSpec) (n, m float64, ok bool) {
	switch s.Kind {
	case "gnp":
		n = float64(s.N)
		m = n * (n - 1) / 2 * s.P
	case "gnp-avg":
		n = float64(s.N)
		m = n * s.P / 2 // P is the target average degree
	case "ba":
		n = float64(s.N)
		ma := float64(s.Degree) // attachments per node (clamped like the generator)
		if ma < 1 {
			ma = 1
		}
		if ma > n-1 {
			ma = n - 1
		}
		if n <= 1 {
			ma = 0
		}
		m = ma*(ma+1)/2 + (n-ma-1)*ma // exact, not just expected
	case "regular":
		n = float64(s.N)
		m = n * float64(s.Degree) / 2
	case "grid":
		r, c := float64(s.N), float64(s.M)
		n = r * c
		m = r*(c-1) + c*(r-1)
	case "torus":
		r, c := float64(s.N), float64(s.M)
		n = r * c
		m = 2 * n
	case "unitdisk":
		n = float64(s.N)
		m = n * (n - 1) / 2 * math.Pi * s.P * s.P // expected pairs within radius P (boundary effects ignored)
	case "complete":
		n = float64(s.N)
		m = n * (n - 1) / 2
	case "cycle":
		n = float64(s.N)
		m = n
	case "path", "star":
		n = float64(s.N)
		m = n - 1
	default:
		return 0, 0, false // no closed form; the exact stats follow generation
	}
	if n <= 0 || m < 0 {
		return 0, 0, false
	}
	return n, m, true
}

// printResidentEstimate sizes the three resident tiers of a simulation on an
// (n, m) graph via graph.EstimateResidency — the same closed forms the
// serving plane's session-cache budget uses for admission and eviction.
func printResidentEstimate(w io.Writer, s graph.GeneratorSpec, n, m float64) {
	est := graph.EstimateResidency(n, m)
	fmt.Fprintf(w, "# est. simulation residency for %s: E[n]=%.3g E[m]=%.3g\n", s.String(), n, m)
	fmt.Fprintf(w, "# est. CSR+edge-index %s, message plane+inboxes %s, coloring %s (8 B/node) — total ≈ %s\n",
		fmtBytes(est.CSRBytes), fmtBytes(est.PlaneBytes), fmtBytes(est.ColoringBytes), fmtBytes(est.Total()))
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
