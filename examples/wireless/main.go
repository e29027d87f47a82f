// Wireless frequency assignment: the motivating application from the paper's
// introduction. Stations that share a neighbour in the communication graph
// interfere with each other, so a valid frequency assignment is exactly a
// distance-2 coloring of the unit-disk communication graph.
//
// The example builds a random deployment of stations in the unit square,
// computes a frequency assignment with the paper's algorithm, checks that no
// two interfering stations share a frequency, and compares the number of
// frequencies and the number of CONGEST rounds against the naive baseline
// that simulates the interference graph directly.
//
// Run with:
//
//	go run ./examples/wireless
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
	const (
		stations = 500
		radius   = 0.08
		seed     = 7
	)
	g, xs, ys := graph.UnitDiskPositions(stations, radius, seed)
	st := graph.ComputeStats(g)
	fmt.Printf("deployment: %d stations, radio range %.2f → %s\n", stations, radius, st.String())

	// The paper's algorithm (Theorem 1.1).
	assignment, err := alg.MustGet("rand-improved").Run(g, alg.Engine{}, seed)
	if err != nil {
		log.Fatal(err)
	}
	// The strawman: run the simple algorithm on the interference graph G² and
	// pay Δ rounds per simulated round.
	naive, err := alg.MustGet("naive").Run(g, alg.Engine{}, seed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %12s %12s\n", "", "improved", "naive-G²")
	fmt.Printf("%-22s %12d %12d\n", "frequencies used", assignment.ColorsUsed(), naive.ColorsUsed())
	fmt.Printf("%-22s %12d %12d\n", "frequency budget", assignment.PaletteSize, naive.PaletteSize)
	fmt.Printf("%-22s %12d %12d\n", "CONGEST rounds", assignment.Metrics.TotalRounds(), naive.Metrics.TotalRounds())

	// Interference check: two stations interfere when they are within radio
	// range of a common station.
	rep := verify.CheckD2(g, assignment.Coloring, assignment.PaletteSize)
	fmt.Printf("\ninterference-free: %v\n", rep.Valid)

	// Show a few stations with their coordinates and frequencies.
	fmt.Println("\nsample assignments:")
	for v := 0; v < 5 && v < g.NumNodes(); v++ {
		fmt.Printf("  station %3d at (%.2f, %.2f): frequency %d\n",
			v, xs[v], ys[v], assignment.Coloring[v])
	}
}
