package baseline

import (
	"testing"
	"testing/quick"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":    graph.GNP(70, 0.06, 1),
		"grid":   graph.Grid(7, 7),
		"star":   graph.Star(15),
		"chain":  graph.CliqueChain(4, 5, 0),
		"tree":   graph.BalancedTree(3, 3),
		"single": graph.NewBuilder(1).Build(),
		"empty":  graph.NewBuilder(0).Build(),
	}
}

func TestGreedyD2Valid(t *testing.T) {
	for name, g := range testGraphs() {
		res := GreedyD2(g)
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
		if res.Algorithm != "greedy-d2" {
			t.Errorf("%s: algorithm label %q", name, res.Algorithm)
		}
	}
}

func TestGreedyD2UsesAtMostSquareDegreePlusOne(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(50, 0.08, seed)
		res := GreedyD2(g)
		return res.Coloring.MaxColor() < g.Square().MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestJohanssonD1(t *testing.T) {
	g := graph.GNP(90, 0.07, 2)
	res, err := JohanssonD1(g, alg.Engine{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckD1(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Errorf("invalid coloring: %v", rep.Error())
	}
	if res.PaletteSize != g.MaxDegree()+1 {
		t.Errorf("palette = %d, want Δ+1 = %d", res.PaletteSize, g.MaxDegree()+1)
	}
	if res.Metrics.Rounds == 0 {
		t.Error("expected some simulated rounds")
	}
}

func TestRelaxedD2(t *testing.T) {
	g := graph.CliqueChain(5, 5, 0)
	res, err := RelaxedD2(g, Options{Epsilon: 1.0}, alg.Engine{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	delta := g.MaxDegree()
	if res.PaletteSize != 2*delta*delta+1 {
		t.Errorf("palette = %d, want %d", res.PaletteSize, 2*delta*delta+1)
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Errorf("invalid coloring: %v", rep.Error())
	}
	// Negative epsilon clamps to 0.
	res2, err := RelaxedD2(graph.Star(6), Options{Epsilon: -1}, alg.Engine{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PaletteSize != 26 {
		t.Errorf("palette with clamped epsilon = %d, want 26", res2.PaletteSize)
	}
}

func TestNaiveD2(t *testing.T) {
	g := graph.GNP(60, 0.08, 5)
	res, err := NaiveD2(g, alg.Engine{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Errorf("invalid coloring: %v", rep.Error())
	}
	if res.PaletteSize > g.MaxDegree()*g.MaxDegree()+1 {
		t.Errorf("palette %d exceeds Δ²+1", res.PaletteSize)
	}
	// The whole point of the baseline: the charged G-round count is a
	// multiple of Δ (per simulated G² round).
	if res.Metrics.ChargedRounds == 0 || res.Metrics.ChargedRounds%g.MaxDegree() != 0 {
		t.Errorf("charged rounds %d should be a positive multiple of Δ=%d", res.Metrics.ChargedRounds, g.MaxDegree())
	}
}

func TestNaiveD2ChargesGrowWithDelta(t *testing.T) {
	// At (roughly) fixed n, the naive baseline's cost should grow with Δ much
	// faster than logarithmically. Compare two average degrees.
	lo := graph.GNPWithAverageDegree(300, 4, 1)
	hi := graph.GNPWithAverageDegree(300, 16, 1)
	resLo, err := NaiveD2(lo, alg.Engine{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	resHi, err := NaiveD2(hi, alg.Engine{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resHi.Metrics.TotalRounds() <= resLo.Metrics.TotalRounds() {
		t.Errorf("naive cost should increase with Δ: low=%d high=%d",
			resLo.Metrics.TotalRounds(), resHi.Metrics.TotalRounds())
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	g := graph.GNP(40, 0.1, 4)
	a, err := NaiveD2(g, alg.Engine{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NaiveD2(g, alg.Engine{}, 21)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatal("same seed should reproduce the same coloring")
		}
	}
}
