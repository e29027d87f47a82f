package trial

import (
	"testing"

	"d2color/internal/graph"
	"d2color/internal/verify"
)

func TestAvoidKnownUsedSpeedsUpTightPalette(t *testing.T) {
	// On the square of a dense graph with exactly Δ(G²)+1 colors, the
	// whole-palette picker wastes most tries once few colors remain free,
	// while the known-available picker (the classical simple algorithm)
	// completes in a logarithmic number of phases. Compare the two on the
	// same instance and seed.
	g := graph.Complete(60) // distance-1 scope on K60 ~ the tightest palette
	palette := g.MaxDegree() + 1
	blind, err := Run(g, Config{PaletteSize: palette, Scope: ScopeDistance1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Run(g, Config{PaletteSize: palette, Scope: ScopeDistance1, Seed: 3, AvoidKnownUsed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !aware.Complete {
		t.Fatal("known-available picker should complete")
	}
	if rep := verify.CheckD1(g, aware.Coloring, palette); !rep.Valid {
		t.Fatalf("invalid coloring: %v", rep.Error())
	}
	if blind.Complete && blind.Phases < aware.Phases {
		t.Errorf("whole-palette picker (%d phases) should not beat the known-available picker (%d phases) on a clique",
			blind.Phases, aware.Phases)
	}
}

func TestAvoidKnownUsedStillValidOnD2Scope(t *testing.T) {
	g := graph.CliqueChain(4, 6, 0)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	res, err := Run(g, Config{PaletteSize: palette, Scope: ScopeDistance2, Seed: 9, AvoidKnownUsed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("run did not complete")
	}
	if rep := verify.CheckD2(g, res.Coloring, palette); !rep.Valid {
		t.Errorf("invalid coloring: %v", rep.Error())
	}
}

func TestIsolatedNodesColorImmediately(t *testing.T) {
	g := graph.NewBuilder(5).Build() // no edges at all
	res, err := Run(g, Config{PaletteSize: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("isolated nodes should all color themselves")
	}
	if res.Phases != 1 {
		t.Errorf("isolated nodes should finish in one phase, took %d", res.Phases)
	}
}
