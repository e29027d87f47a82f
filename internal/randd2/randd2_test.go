package randd2

import (
	"errors"
	"testing"
	"testing/quick"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

func testWorkloads() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp-sparse":  graph.GNP(120, 0.04, 1),
		"gnp-denser":  graph.GNPWithAverageDegree(200, 10, 2),
		"grid":        graph.Grid(10, 10),
		"cliquechain": graph.CliqueChain(6, 6, 0),
		"star":        graph.Star(20),
		"tree":        graph.BalancedTree(3, 3),
		"unitdisk":    graph.UnitDisk(120, 0.15, 3),
	}
}

func TestImprovedVariantValidOnWorkloads(t *testing.T) {
	for name, g := range testWorkloads() {
		res, err := Run(g, Options{Variant: VariantImproved}, alg.Engine{}, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delta := g.MaxDegree()
		if !res.UsedDeterministicFallback && res.PaletteSize != delta*delta+1 {
			t.Errorf("%s: palette %d, want Δ²+1 = %d", name, res.PaletteSize, delta*delta+1)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
		if res.Metrics.TotalRounds() <= 0 {
			t.Errorf("%s: expected positive round count", name)
		}
		if res.ActiveRounds <= 0 || res.ActiveRounds > res.Metrics.TotalRounds() {
			t.Errorf("%s: ActiveRounds %d outside (0, %d]", name, res.ActiveRounds, res.Metrics.TotalRounds())
		}
	}
}

func TestBasicVariantValidOnWorkloads(t *testing.T) {
	for name, g := range testWorkloads() {
		res, err := Run(g, Options{Variant: VariantBasic}, alg.Engine{}, 11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
	}
}

func TestDeterministicFallbackOnLowDegree(t *testing.T) {
	// A long path has Δ = 2, so Δ² = 4 < C2·log n for n = 200: step 0 defers
	// to the deterministic algorithm.
	g := graph.Path(200)
	res, err := Run(g, Options{}, alg.Engine{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedDeterministicFallback {
		t.Error("low-degree graph should trigger the deterministic fallback")
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Errorf("%v", rep.Error())
	}
	// Forcing the randomized path must still give a valid coloring.
	res2, err := Run(g, Options{DisableDeterministicFallback: true}, alg.Engine{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UsedDeterministicFallback {
		t.Error("fallback should have been disabled")
	}
	if rep := verify.CheckD2(g, res2.Coloring, res2.PaletteSize); !rep.Valid {
		t.Errorf("forced randomized path: %v", rep.Error())
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(graph.NewBuilder(0).Build(), Options{}, alg.Engine{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coloring) != 0 {
		t.Error("empty graph should give an empty coloring")
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	p := Default()
	p.C0 = 0
	if _, err := Run(graph.Star(10), Options{Params: &p}, alg.Engine{}, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("err = %v, want ErrBadParams", err)
	}
	p = Default()
	p.C1 = 2
	if err := p.Validate(); !errors.Is(err, ErrBadParams) {
		t.Errorf("C1 > 1 should be invalid, got %v", err)
	}
	p = Default()
	p.SimilarityHHat = 0.1 // below SimilarityH
	if err := p.Validate(); !errors.Is(err, ErrBadParams) {
		t.Errorf("Ĥ threshold below H threshold should be invalid, got %v", err)
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("Default params should validate, got %v", err)
	}
	if err := Paper().Validate(); err != nil {
		t.Errorf("Paper params should validate, got %v", err)
	}
}

func TestVariantString(t *testing.T) {
	if VariantBasic.String() != "basic" || VariantImproved.String() != "improved" {
		t.Error("variant labels wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should still render")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.CliqueChain(5, 6, 0)
	a, err := Run(g, Options{}, alg.Engine{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{}, alg.Engine{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatalf("node %d: colors differ between identical runs (%d vs %d)", v, a.Coloring[v], b.Coloring[v])
		}
	}
	if a.Metrics.TotalRounds() != b.Metrics.TotalRounds() {
		t.Errorf("round counts differ: %d vs %d", a.Metrics.TotalRounds(), b.Metrics.TotalRounds())
	}
}

func TestDifferentSeedsExploreDifferentColorings(t *testing.T) {
	g := graph.CliqueChain(5, 6, 0)
	a, err := Run(g, Options{}, alg.Engine{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{}, alg.Engine{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical colorings (extremely unlikely)")
	}
}

func TestReduceIsExercisedOnDenseWorkloads(t *testing.T) {
	// On the Hoffman–Singleton graph every d2-neighbourhood is exactly Δ²
	// nodes (zero sparsity), so the similarity graphs are complete and the
	// Reduce machinery — queries across 2-paths, helper colour checks,
	// forwarded proposals — does real work. The initial-phase budget is
	// reduced so that live nodes actually reach the main loop.
	g := graph.HoffmanSingleton()
	params := Default()
	params.C0 = 0.3
	params.C1 = 0.9
	params.QueryDenominator = 1
	params.ActiveDenominator = 1
	res, err := Run(g, Options{Variant: VariantImproved, Params: &params, DisableDeterministicFallback: true}, alg.Engine{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Fatalf("invalid coloring: %v", rep.Error())
	}
	if len(res.ReduceStats) == 0 {
		t.Fatal("expected at least one Reduce invocation")
	}
	totalPhases, totalQueries, totalProposals := 0, 0, 0
	for _, s := range res.ReduceStats {
		totalPhases += s.Phases
		totalQueries += s.QueriesSent
		totalProposals += s.Proposals
	}
	if totalPhases == 0 {
		t.Error("Reduce should have run phases")
	}
	if totalQueries == 0 {
		t.Error("Reduce should have generated queries on a zero-sparsity workload")
	}
	if totalProposals == 0 {
		t.Error("Reduce queries should have produced proposals")
	}
}

func TestImprovedReportsPaletteAndFinishStats(t *testing.T) {
	g := graph.CliqueChain(6, 7, 0)
	res, err := Run(g, Options{Variant: VariantImproved}, alg.Engine{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PaletteStats.ChargedRounds <= 0 {
		t.Error("LearnPalette should charge rounds")
	}
	if res.InitialPhases <= 0 {
		t.Error("initial phase count should be positive")
	}
}

func TestPropertyAlwaysValid(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNPWithAverageDegree(80, 8, int64(seed%16))
		res, err := Run(g, Options{}, alg.Engine{}, seed)
		if err != nil {
			return false
		}
		return verify.CheckD2(g, res.Coloring, res.PaletteSize).Valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBothVariantsRoundsGrowWithN(t *testing.T) {
	small := graph.GNPWithAverageDegree(100, 12, 1)
	large := graph.GNPWithAverageDegree(800, 12, 1)
	for _, variant := range []Variant{VariantBasic, VariantImproved} {
		rs, err := Run(small, Options{Variant: variant}, alg.Engine{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := Run(large, Options{Variant: variant}, alg.Engine{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rl.Metrics.TotalRounds() <= rs.Metrics.TotalRounds() {
			t.Errorf("%s: rounds should grow with n: n=100 → %d, n=800 → %d",
				variant, rs.Metrics.TotalRounds(), rl.Metrics.TotalRounds())
		}
	}
}
