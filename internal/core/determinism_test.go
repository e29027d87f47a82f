package core

import (
	"fmt"
	"testing"

	"d2color/internal/graph"
)

// TestEngineDeterminism asserts the headline guarantee of the CONGEST
// engine: for every algorithm, every seed and every graph family, running
// with any worker count produces byte-identical colorings and identical
// Metrics to the inline engine (Workers 1).
func TestEngineDeterminism(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(64, 6, 3)},
		{"grid", graph.Grid(8, 8)},
		{"cliquechain", graph.CliqueChain(4, 5, 0)},
	}
	seeds := []uint64{1, 7, 42}
	for _, fam := range families {
		for _, algo := range Algorithms() {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fam.name, algo, seed), func(t *testing.T) {
					want, err := Solve(fam.g, Options{Algorithm: algo, Seed: seed, Workers: 1})
					if err != nil {
						t.Fatalf("inline: %v", err)
					}
					for _, workers := range []int{2, 3, 4, 16} {
						got, err := Solve(fam.g, Options{Algorithm: algo, Seed: seed, Workers: workers})
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if len(want.Coloring) != len(got.Coloring) {
							t.Fatalf("workers=%d: coloring lengths differ: %d vs %d", workers, len(got.Coloring), len(want.Coloring))
						}
						for v := range want.Coloring {
							if want.Coloring[v] != got.Coloring[v] {
								t.Fatalf("workers=%d node %d: color %d, inline color %d",
									workers, v, got.Coloring[v], want.Coloring[v])
							}
						}
						if want.Metrics != got.Metrics {
							t.Fatalf("workers=%d: metrics differ:\nteam:   %v\ninline: %v", workers, got.Metrics, want.Metrics)
						}
						if want.PaletteSize != got.PaletteSize || want.ColorsUsed != got.ColorsUsed {
							t.Fatalf("workers=%d: palette/colors differ: (%d,%d) vs inline (%d,%d)",
								workers, got.PaletteSize, got.ColorsUsed, want.PaletteSize, want.ColorsUsed)
						}
					}
				})
			}
		}
	}
}
