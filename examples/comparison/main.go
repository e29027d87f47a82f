// Comparison: run every implemented algorithm on the same workload and print
// a side-by-side table of palette size, colors used and CONGEST rounds. This
// is the at-a-glance version of the experiment suite (see cmd/experiments for
// the full sweeps).
//
// Run with:
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"d2color/internal/alg"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/graph"
	"d2color/internal/verify"
)

func main() {
	g := graph.CliqueChain(8, 8, 0) // dense d2-neighbourhoods: the hard regime
	fmt.Printf("workload: clique chain, %s, Δ²+1 = %d\n\n", g, g.MaxDegree()*g.MaxDegree()+1)

	algos := []string{"rand-improved", "rand-basic", "deterministic", "polylog", "relaxed", "naive", "greedy"}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tpalette\tcolors used\trounds\tmessages")
	for _, algo := range algos {
		res, err := alg.MustGet(algo).Run(g, alg.Engine{}, 5)
		if err != nil {
			log.Fatalf("%s: %v", algo, err)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			log.Fatalf("%s: invalid coloring: %v", algo, rep.Error())
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n",
			algo, res.PaletteSize, res.ColorsUsed(),
			res.Metrics.TotalRounds(), res.Metrics.MessagesSent)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nreading guide:")
	fmt.Println("  - the exact algorithms stay within Δ²+1 colors; relaxed/polylog trade colors for speed or determinism")
	fmt.Println("  - naive pays the Θ(Δ) simulation factor the introduction warns about")
	fmt.Println("  - greedy is sequential (0 rounds) and is only the color-count reference")
}
