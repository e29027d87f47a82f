// Quickstart: generate a small random network, distance-2 color it with the
// paper's randomized algorithm (Theorem 1.1), and verify the result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"d2color/internal/alg"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/graph"
	"d2color/internal/verify"
)

func main() {
	// A random network with 400 nodes and average degree ~10.
	g := graph.GNPWithAverageDegree(400, 10, 42)
	fmt.Printf("network: %s\n", g)

	// Color with the paper's improved randomized algorithm (which falls back
	// to the deterministic one on low-degree graphs).
	const algo = "rand-improved"
	res, err := alg.MustGet(algo).Run(g, alg.Engine{}, 42)
	if err != nil {
		log.Fatal(err)
	}

	delta := g.MaxDegree()
	fmt.Printf("algorithm:     %s\n", algo)
	fmt.Printf("palette bound: Δ²+1 = %d\n", delta*delta+1)
	fmt.Printf("colors used:   %d\n", res.ColorsUsed())
	fmt.Printf("CONGEST rounds: %d\n", res.Metrics.TotalRounds())

	// Independently verify: no two nodes at distance ≤ 2 share a color.
	rep := verify.CheckD2(g, res.Coloring, res.PaletteSize)
	fmt.Printf("valid distance-2 coloring: %v\n", rep.Valid)

	// Show the colors around an arbitrary node.
	v := graph.NodeID(0)
	fmt.Printf("node %d has color %d; its neighbours:", v, res.Coloring.Get(v))
	for _, u := range g.Neighbors(v) {
		fmt.Printf(" %d→%d", u, res.Coloring.Get(u))
	}
	fmt.Println()
}
