package core

import (
	"testing"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/mis"
	"d2color/internal/verify"
)

// TestSolveAllAlgorithms runs every linked distance-2 coloring algorithm
// through the registry and checks its coloring, its palette and its stage
// details.
func TestSolveAllAlgorithms(t *testing.T) {
	g := graph.GNPWithAverageDegree(120, 8, 1)
	exact := alg.D2Palette(g)
	for _, a := range alg.All() {
		if !alg.IsD2Coloring(a) {
			continue
		}
		res, err := a.Run(g, alg.Engine{}, 3)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: %v", a.Name(), rep.Error())
		}
		if used := res.ColorsUsed(); used > res.PaletteSize {
			t.Errorf("%s: used %d colors with palette %d", a.Name(), used, res.PaletteSize)
		}
		// Everything but the (1+ε)Δ² algorithms must stay within Δ²+1.
		if a.Name() != "polylog" && a.Name() != "relaxed" && res.PaletteSize > exact {
			t.Errorf("%s: palette %d exceeds Δ²+1 = %d", a.Name(), res.PaletteSize, exact)
		}
		if res.Details == nil {
			t.Errorf("%s: missing details", a.Name())
		}
	}
}

// TestSolveEmptyGraph runs every linked algorithm on the n = 0 graph.
func TestSolveEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	for _, a := range alg.All() {
		res, err := a.Run(g, alg.Engine{}, 1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(res.Coloring) != 0 || res.Packed != nil {
			t.Errorf("%s: expected an empty coloring", a.Name())
		}
	}
}

// TestSolveEpsilonDefaults pins the registered relaxed instance's ε = 1: a
// 2Δ²+1 palette.
func TestSolveEpsilonDefaults(t *testing.T) {
	g := graph.CliqueChain(3, 5, 0)
	res, err := alg.MustGet("relaxed").Run(g, alg.Engine{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	delta := g.MaxDegree()
	if res.PaletteSize != 2*delta*delta+1 {
		t.Errorf("default epsilon should be 1: palette %d, want %d", res.PaletteSize, 2*delta*delta+1)
	}
}

// TestSolveRegistryFallbackRunsMIS runs the coloring-shaped mis entry
// through the registry: its 2-coloring must encode the independent set it
// reports, and that set must be independent.
func TestSolveRegistryFallbackRunsMIS(t *testing.T) {
	g := graph.GNPWithAverageDegree(120, 6, 2)
	res, err := alg.MustGet("mis").Run(g, alg.Engine{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PaletteSize != 2 {
		t.Errorf("palette = %d, want 2", res.PaletteSize)
	}
	details, ok := res.Details.(*mis.Result)
	if !ok {
		t.Fatalf("Details = %T, want *mis.Result", res.Details)
	}
	for v := 0; v < g.NumNodes(); v++ {
		want := 0
		if details.InSet[v] {
			want = 1
		}
		if res.Coloring[v] != want {
			t.Fatalf("node %d: color %d does not encode InSet=%v", v, res.Coloring[v], details.InSet[v])
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if !details.InSet[v] {
			continue
		}
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if details.InSet[u] {
				t.Fatalf("nodes %d and %d are adjacent and both in the set", v, u)
			}
		}
	}
}
