// Strong coloring of a task/resource hypergraph — the second application the
// paper's introduction describes: task nodes on one side, resource nodes on
// the other; tasks that use a common resource must receive different colors.
// That is exactly a distance-2 constraint between task nodes in the bipartite
// task–resource graph, so a d2-coloring of the bipartite graph restricted to
// the task side is a strong coloring of the hypergraph.
//
// Run with:
//
//	go run ./examples/hypergraph
package main

import (
	"fmt"
	"log"

	"d2color/internal/alg"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/graph"
)

func main() {
	const (
		tasks     = 300
		resources = 60
		perTask   = 3
		seed      = 11
	)
	g := graph.TaskResource(tasks, resources, perTask, seed)
	fmt.Printf("hypergraph: %d tasks, %d resources, %d resources per task → %s\n",
		tasks, resources, perTask, g)

	// The paper's algorithm; on low-degree inputs it applies step 0 of
	// d2-Color and runs the deterministic pipeline.
	const algo = "rand-improved"
	res, err := alg.MustGet(algo).Run(g, alg.Engine{}, seed)
	if err != nil {
		log.Fatal(err)
	}

	// Extract the task-side coloring and check the strong-coloring property
	// directly: no two tasks sharing a resource have the same color.
	conflicts := 0
	taskColors := make(map[int]int) // color -> count
	for task := 0; task < tasks; task++ {
		taskColors[res.Coloring.Get(graph.NodeID(task))]++
	}
	for r := 0; r < resources; r++ {
		resourceNode := graph.NodeID(tasks + r)
		seen := make(map[int]graph.NodeID)
		for _, t := range g.Neighbors(resourceNode) {
			c := res.Coloring.Get(t)
			if prev, ok := seen[c]; ok {
				conflicts++
				fmt.Printf("conflict: tasks %d and %d share resource %d and color %d\n", prev, t, r, c)
			}
			seen[c] = t
		}
	}

	fmt.Printf("algorithm:            %s\n", algo)
	fmt.Printf("distinct task colors: %d (palette bound %d)\n", len(taskColors), res.PaletteSize)
	fmt.Printf("CONGEST rounds:       %d\n", res.Metrics.TotalRounds())
	fmt.Printf("strong-coloring conflicts: %d\n", conflicts)
	if conflicts == 0 {
		fmt.Println("every resource's tasks received pairwise distinct colors ✓")
	}
}
