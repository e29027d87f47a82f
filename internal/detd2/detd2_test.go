package detd2

import (
	"testing"
	"testing/quick"

	"d2color/internal/alg"
	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

func TestRunOnVariousGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"gnp":   graph.GNP(70, 0.05, 1),
		"grid":  graph.Grid(8, 8),
		"star":  graph.Star(14),
		"chain": graph.CliqueChain(4, 5, 0),
		"tree":  graph.BalancedTree(2, 4),
		"path":  graph.Path(25),
	}
	for name, g := range cases {
		res, err := Run(g, Options{}, alg.Engine{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delta := g.MaxDegree()
		if res.PaletteSize > delta*delta+1 {
			t.Errorf("%s: palette %d exceeds Δ²+1 = %d", name, res.PaletteSize, delta*delta+1)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res, err := Run(graph.NewBuilder(0).Build(), Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coloring) != 0 {
		t.Error("empty graph should give empty coloring")
	}
}

func TestRoundsScaleRoughlyWithDeltaSquared(t *testing.T) {
	// Theorem 1.2: O(Δ² + log* n) rounds. With n fixed, quadrupling Δ should
	// increase the round count by far more than a constant.
	n := 400
	small := graph.RandomRegular(n, 4, 1)
	large := graph.RandomRegular(n, 16, 1)
	rs, err := Run(small, Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large, Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Metrics.TotalRounds() <= rs.Metrics.TotalRounds() {
		t.Errorf("rounds should grow with Δ: Δ=4 → %d, Δ=16 → %d",
			rs.Metrics.TotalRounds(), rl.Metrics.TotalRounds())
	}
	// Loose quantitative check on the shape: the ratio should exceed the
	// linear ratio 4 (it is dominated by the Δ² term).
	ratio := float64(rl.Metrics.TotalRounds()) / float64(rs.Metrics.TotalRounds())
	if ratio < 3 {
		t.Errorf("round ratio %.1f suspiciously small for a Δ² algorithm", ratio)
	}
}

func TestIDAssignmentsProduceValidColorings(t *testing.T) {
	g := graph.GNP(50, 0.07, 2)
	for _, ids := range []congest.IDAssignment{congest.IDSequential, congest.IDRandomPermutation, congest.IDSparseRandom} {
		res, err := Run(g, Options{IDs: ids}, alg.Engine{}, 3)
		if err != nil {
			t.Fatalf("ids=%d: %v", ids, err)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("ids=%d: %v", ids, rep.Error())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.Grid(6, 7)
	a, err := Run(g, Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatal("deterministic algorithm produced different colorings")
		}
	}
	if a.Metrics.TotalRounds() != b.Metrics.TotalRounds() {
		t.Error("round counts should be identical across runs")
	}
}

func TestStagesReported(t *testing.T) {
	g := graph.GNP(60, 0.06, 9)
	res, err := Run(g, Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.LinialColors == 0 || res.Stages.IterativeColors == 0 {
		t.Error("intermediate palette sizes should be reported")
	}
	sum := res.Stages.LinialRounds + res.Stages.IterativeRounds + res.Stages.ReductionRounds
	if sum != res.Metrics.TotalRounds() {
		t.Errorf("stage rounds %d do not sum to total %d", sum, res.Metrics.TotalRounds())
	}
}

func TestPropertyValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(40, 0.1, seed)
		res, err := Run(g, Options{}, alg.Engine{}, 0)
		if err != nil {
			return false
		}
		return verify.CheckD2(g, res.Coloring, g.MaxDegree()*g.MaxDegree()+1).Valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
