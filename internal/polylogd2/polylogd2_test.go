package polylogd2

import (
	"errors"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
	"d2color/internal/splitting"
	"d2color/internal/verify"
)

func TestOptionsValidation(t *testing.T) {
	g := graph.Complete(10)
	if _, err := ColorG(g, Options{Epsilon: 0}, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("epsilon 0: %v", err)
	}
	if _, err := ColorG2(g, Options{Epsilon: -1}, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("negative epsilon: %v", err)
	}
	if _, err := Partition(g, Options{Epsilon: 0}, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("partition epsilon 0: %v", err)
	}
}

func TestPartitionReducesPartDegree(t *testing.T) {
	// A clique with a small degree threshold forces several splitting levels.
	g := graph.Complete(64)
	res, err := Partition(g, Options{Epsilon: 1, DegreeThreshold: 10, ThresholdCoeff: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels == 0 {
		t.Fatal("expected at least one splitting level")
	}
	if res.NumParts < 2 {
		t.Errorf("expected multiple parts, got %d", res.NumParts)
	}
	if res.MaxPartDegree >= 63 {
		t.Errorf("part degree did not decrease: %d", res.MaxPartDegree)
	}
	if res.Rounds <= 0 {
		t.Error("deterministic splitting should charge rounds")
	}
	// Partition labels cover every node.
	if len(res.Parts) != 64 {
		t.Errorf("parts length %d", len(res.Parts))
	}
}

func TestPartitionPaperThresholdIsTrivial(t *testing.T) {
	// With the paper's degree threshold (default), laptop-scale graphs are
	// already below it, so no splitting happens (documented scaling note).
	g := graph.GNP(100, 0.2, 1)
	res, err := Partition(g, Options{Epsilon: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 0 || res.NumParts != 1 {
		t.Errorf("expected trivial partition, got levels=%d parts=%d", res.Levels, res.NumParts)
	}
}

func TestColorGRespectsBudget(t *testing.T) {
	cases := map[string]*graph.Graph{
		"clique":    graph.Complete(60),
		"gnp":       graph.GNP(150, 0.2, 2),
		"bipartite": graph.CompleteBipartite(40, 40),
	}
	for name, g := range cases {
		res, err := ColorG(g, Options{Epsilon: 1, DegreeThreshold: 8, ThresholdCoeff: 1}, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ColorsUsed > res.PaletteBound {
			t.Errorf("%s: used %d colors, budget %d", name, res.ColorsUsed, res.PaletteBound)
		}
		if rep := verify.CheckD1(g, res.Coloring, res.PaletteBound); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
	}
}

func TestColorGPartitionedPathIsExercised(t *testing.T) {
	// On a clique with a forced small degree threshold, the partitioned path
	// (not the direct fallback) should be used, and it should still meet the
	// (1+ε)Δ budget with ε = 1.
	g := graph.Complete(64)
	res, err := ColorG(g, Options{Epsilon: 1, DegreeThreshold: 8, ThresholdCoeff: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParts < 2 {
		t.Errorf("expected a non-trivial partition, got %d parts", res.NumParts)
	}
	if res.UsedDirectFallback {
		t.Log("partitioned scheme exceeded the budget and fell back (acceptable but unexpected for ε=1)")
	}
	if res.ColorsUsed > res.PaletteBound {
		t.Errorf("color budget violated: %d > %d", res.ColorsUsed, res.PaletteBound)
	}
}

func TestColorG2RespectsBudgetAndValidity(t *testing.T) {
	cases := map[string]*graph.Graph{
		"cliquechain": graph.CliqueChain(4, 6, 0),
		"gnp":         graph.GNPWithAverageDegree(120, 8, 1),
		"grid":        graph.Grid(8, 8),
	}
	for name, g := range cases {
		res, err := ColorG2(g, Options{Epsilon: 1, DegreeThreshold: 6, ThresholdCoeff: 1}, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delta := g.MaxDegree()
		if res.PaletteBound < delta*delta+1 {
			t.Errorf("%s: palette bound %d below Δ²+1", name, res.PaletteBound)
		}
		if res.ColorsUsed > res.PaletteBound {
			t.Errorf("%s: used %d colors, budget %d", name, res.ColorsUsed, res.PaletteBound)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteBound); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
		if res.Metrics.TotalRounds() <= 0 {
			t.Errorf("%s: expected positive rounds", name)
		}
	}
}

func TestColorG2EmptyGraph(t *testing.T) {
	res, err := ColorG2(graph.NewBuilder(0).Build(), Options{Epsilon: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coloring) != 0 {
		t.Error("empty graph should give empty coloring")
	}
}

func TestPaletteBoundHelper(t *testing.T) {
	if got := paletteBound(10, 0.5); got != 15 {
		t.Errorf("paletteBound(10, 0.5) = %d, want 15", got)
	}
	// Never below base+1.
	if got := paletteBound(4, 0.01); got != 5 {
		t.Errorf("paletteBound(4, 0.01) = %d, want 5", got)
	}
}

func TestPropertyColorGValidAcrossSeeds(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(60, 0.25, int64(seed%8))
		res, err := ColorG(g, Options{Epsilon: 1, DegreeThreshold: 6, ThresholdCoeff: 1}, seed)
		if err != nil {
			return false
		}
		return verify.CheckD1(g, res.Coloring, res.PaletteBound).Valid &&
			res.ColorsUsed <= res.PaletteBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPartitionIsConsistentWithSplittingHelpers(t *testing.T) {
	g := graph.Complete(32)
	res, err := Partition(g, Options{Epsilon: 1, DegreeThreshold: 4, ThresholdCoeff: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := splitting.MaxPartDegree(g, res.Parts); got != res.MaxPartDegree {
		t.Errorf("MaxPartDegree mismatch: %d vs %d", got, res.MaxPartDegree)
	}
}
