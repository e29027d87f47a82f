// Command d2color runs one distance-2 coloring algorithm on one generated
// graph and reports the palette, the colors used and the CONGEST round cost.
//
// Example:
//
//	d2color -graph gnp -n 1024 -p 0.01 -algo rand-improved -seed 7
//	d2color -graph unitdisk -n 500 -p 0.12 -algo deterministic
//	d2color -graph cliquechain -n 10 -m 10 -algo polylog -eps 0.5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"d2color/internal/alg"
	"d2color/internal/baseline"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/graph"
	"d2color/internal/polylogd2"
	"d2color/internal/verify"
)

// autoAlgo is the default -algo: the paper's algorithm, rand-improved, which
// itself applies step 0 of d2-Color (the deterministic pipeline when
// Δ² = O(log n)).
const autoAlgo = "auto"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2color:", err)
		os.Exit(1)
	}
}

// algoNames lists the -algo values: auto plus every registered algorithm.
func algoNames() string {
	return strings.Join(append([]string{autoAlgo}, alg.Names()...), ", ")
}

// lookup resolves an -algo value to the algorithm to run; polylog and relaxed
// are built with the -eps slack (≤ 0 means 1).
func lookup(name string, eps float64) (alg.Algorithm, error) {
	if eps <= 0 {
		eps = 1
	}
	switch name {
	case autoAlgo:
		name = "rand-improved"
	case "polylog":
		return polylogd2.Algorithm(polylogd2.Options{Epsilon: eps}), nil
	case "relaxed":
		return baseline.RelaxedAlgorithm(baseline.Options{Epsilon: eps}), nil
	}
	a, ok := alg.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q (choose from: %s)", name, algoNames())
	}
	return a, nil
}

type output struct {
	Graph       string `json:"graph"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	MaxDegree   int    `json:"maxDegree"`
	Algorithm   string `json:"algorithm"`
	PaletteSize int    `json:"paletteSize"`
	ColorsUsed  int    `json:"colorsUsed"`
	Rounds      int    `json:"rounds"`
	Messages    int    `json:"messages"`
	Valid       bool   `json:"valid"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("d2color", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		input   = fs.String("input", "", "read the graph from an edge-list file (as written by graphgen -edges) instead of generating one")
		kind    = fs.String("graph", "gnp", "graph generator: gnp, gnp-avg, regular, grid, torus, tree, cliquechain, unitdisk, taskresource, complete, cycle, path, star, doublestar, petersen, hoffman-singleton")
		n       = fs.Int("n", 256, "primary size parameter")
		m       = fs.Int("m", 0, "secondary size parameter (grid cols, clique size, resources)")
		degree  = fs.Int("degree", 8, "degree-like parameter (regular degree, tree branching, tasks per resource)")
		p       = fs.Float64("p", 0.05, "probability / radius / average degree parameter")
		seed    = fs.Uint64("seed", 1, "random seed")
		algo    = fs.String("algo", autoAlgo, "algorithm: "+algoNames())
		eps     = fs.Float64("eps", 1, "epsilon for the polylog and relaxed algorithms")
		workers = fs.Int("workers", 1, "CONGEST engine workers: 1 runs rounds inline, k > 1 on a team of k goroutines (same results, different wall clock)")
		asJSON  = fs.Bool("json", false, "emit JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := lookup(*algo, *eps)
	if err != nil {
		return err
	}

	spec := graph.GeneratorSpec{Kind: *kind, N: *n, M: *m, Degree: *degree, P: *p, Seed: int64(*seed)}
	var g *graph.Graph
	graphLabel := spec.String()
	if *input != "" {
		f, ferr := os.Open(*input)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f)
		graphLabel = *input
	} else {
		g, err = spec.Generate()
	}
	if err != nil {
		return err
	}

	res, err := a.Run(g, alg.Engine{Workers: *workers}, *seed)
	if err != nil {
		return fmt.Errorf("%s: %w", a.Name(), err)
	}
	rep := verify.CheckD2(g, res.Coloring, res.PaletteSize)

	out := output{
		Graph:       graphLabel,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		MaxDegree:   g.MaxDegree(),
		Algorithm:   a.Name(),
		PaletteSize: res.PaletteSize,
		ColorsUsed:  res.ColorsUsed(),
		Rounds:      res.Metrics.TotalRounds(),
		Messages:    res.Metrics.MessagesSent,
		Valid:       rep.Valid,
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(w, "graph:        %s (n=%d, m=%d, Δ=%d)\n", out.Graph, out.Nodes, out.Edges, out.MaxDegree)
	fmt.Fprintf(w, "algorithm:    %s\n", out.Algorithm)
	fmt.Fprintf(w, "palette:      %d\n", out.PaletteSize)
	fmt.Fprintf(w, "colors used:  %d\n", out.ColorsUsed)
	fmt.Fprintf(w, "rounds:       %d\n", out.Rounds)
	fmt.Fprintf(w, "messages:     %d\n", out.Messages)
	fmt.Fprintf(w, "valid:        %v\n", out.Valid)
	return nil
}
