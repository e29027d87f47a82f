package core

import (
	"fmt"
	"slices"
	"testing"

	"d2color/internal/alg"
	"d2color/internal/graph"
)

// TestEngineDeterminism asserts the headline guarantee of the CONGEST
// engine: for every linked algorithm, every seed and every graph family,
// running with any worker count produces a byte-identical coloring and the
// same Metrics, palette and colors used as the inline engine (Workers 1).
// The auto case is d2color's default -algo, the alias for rand-improved.
func TestEngineDeterminism(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(64, 6, 3)},
		{"grid", graph.Grid(8, 8)},
		{"cliquechain", graph.CliqueChain(4, 5, 0)},
	}
	type algCase struct {
		name string
		a    alg.Algorithm
	}
	cases := []algCase{{"auto", alg.MustGet("rand-improved")}}
	for _, a := range alg.All() {
		cases = append(cases, algCase{a.Name(), a})
	}
	seeds := []uint64{1, 7, 42}
	for _, fam := range families {
		for _, c := range cases {
			a := c.a
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fam.name, c.name, seed), func(t *testing.T) {
					want, err := a.Run(fam.g, alg.Engine{Workers: 1}, seed)
					if err != nil {
						t.Fatalf("inline: %v", err)
					}
					for _, workers := range []int{2, 3, 4, 16} {
						got, err := a.Run(fam.g, alg.Engine{Workers: workers}, seed)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if !slices.Equal(got.Coloring, want.Coloring) {
							t.Fatalf("workers=%d: coloring differs from inline", workers)
						}
						if want.Metrics != got.Metrics {
							t.Fatalf("workers=%d: metrics differ:\nteam:   %v\ninline: %v", workers, got.Metrics, want.Metrics)
						}
						if want.PaletteSize != got.PaletteSize || want.ColorsUsed() != got.ColorsUsed() {
							t.Fatalf("workers=%d: palette/colors differ: (%d,%d) vs inline (%d,%d)",
								workers, got.PaletteSize, got.ColorsUsed(), want.PaletteSize, want.ColorsUsed())
						}
					}
				})
			}
		}
	}
}
