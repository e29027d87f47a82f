package detcolor

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
	"d2color/internal/verify"
)

func TestColorProducesDeltaPlusOneColoring(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":   graph.Path(30),
		"cycle":  graph.Cycle(31),
		"grid":   graph.Grid(8, 9),
		"gnp":    graph.GNP(80, 0.06, 1),
		"star":   graph.Star(12),
		"clique": graph.Complete(9),
		"tree":   graph.BalancedTree(3, 3),
	}
	for name, g := range cases {
		res, err := Color(g, nil, DefaultCostModelG())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.PaletteSize != g.MaxDegree()+1 {
			t.Errorf("%s: palette %d, want Δ+1 = %d", name, res.PaletteSize, g.MaxDegree()+1)
		}
		if rep := verify.CheckD1(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: invalid coloring: %v", name, rep.Error())
		}
		if res.Metrics.TotalRounds() == 0 && g.MaxDegree() > 0 {
			t.Errorf("%s: expected a positive round charge", name)
		}
	}
}

func TestColorOnSquareGraphGivesD2Coloring(t *testing.T) {
	// Theorem 1.2's core: run the pipeline on H = G².
	g := graph.GNP(60, 0.06, 2)
	sq := g.Square()
	res, err := Color(sq, nil, DefaultCostModelG2(g.MaxDegree()))
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Errorf("invalid d2-coloring: %v", rep.Error())
	}
	if res.PaletteSize > g.MaxDegree()*g.MaxDegree()+1 {
		t.Errorf("palette %d exceeds Δ²+1 = %d", res.PaletteSize, g.MaxDegree()*g.MaxDegree()+1)
	}
}

func TestIntermediatePalettes(t *testing.T) {
	g := graph.GNP(100, 0.05, 3)
	res, err := Color(g, nil, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	d := g.MaxDegree()
	// Linial's stage ends with O(Δ²) colors; our construction guarantees at
	// most (2Δ+O(Δ/ log Δ))² which we bound loosely by 36·Δ²+64 for the test.
	if res.LinialColors > 36*d*d+64 {
		t.Errorf("Linial palette %d too large for Δ=%d", res.LinialColors, d)
	}
	// Locally-iterative stage ends with a prime q = O(Δ): bounded by 8Δ+64.
	if res.IterativeColors > 8*d+64 {
		t.Errorf("iterative palette %d too large for Δ=%d", res.IterativeColors, d)
	}
	if res.LinialRounds <= 0 || res.IterativeRounds <= 0 || res.ReductionRounds <= 0 {
		t.Errorf("stage rounds should be positive: %d %d %d",
			res.LinialRounds, res.IterativeRounds, res.ReductionRounds)
	}
}

func TestColorWithExplicitSparseIDs(t *testing.T) {
	g := graph.Cycle(20)
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = i*i*7 + 13 // sparse, distinct, non-contiguous
	}
	res, err := Color(g, ids, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckD1(g, res.Coloring, res.PaletteSize); !rep.Valid {
		t.Errorf("invalid coloring: %v", rep.Error())
	}
}

func TestColorRejectsBadIDs(t *testing.T) {
	g := graph.Path(4)
	for name, ids := range map[string][]int{
		"duplicate adjacent":       {1, 2, 2, 3},
		"duplicate apart":          {3, 1, 2, 3},
		"duplicate descending":     {9, 7, 7, 1},
		"negative":                 {1, -2, 3, 4},
		"negative in unsorted ids": {4, 3, -1, 2},
		"negative after duplicate": {5, 5, 6, -7},
	} {
		if _, err := Color(g, ids, DefaultCostModelG()); !errors.Is(err, ErrIDsNotDistinct) {
			t.Errorf("%s %v: err = %v, want ErrIDsNotDistinct", name, ids, err)
		}
	}
	if _, err := Color(g, []int{1, 2}, DefaultCostModelG()); err == nil {
		t.Error("wrong id count should error")
	}
}

// TestCheckIDsSparse checks the distinct-ID check on IDs as sparse as
// IDSparseRandom draws them (just below n³), in ascending, shuffled and
// descending order: it accepts them, reports the largest, and rejects the
// same list once one ID is repeated.
func TestCheckIDsSparse(t *testing.T) {
	const n = 4000
	ids := make([]int, n)
	for i := range ids {
		ids[i] = n*n*n - 1 - (n-1-i)*(n*n/3)
	}
	want := n*n*n - 1
	rng := rand.New(rand.NewSource(1))
	shuffled := slices.Clone(ids)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	descending := slices.Clone(ids)
	slices.Reverse(descending)
	for name, list := range map[string][]int{"ascending": ids, "shuffled": shuffled, "descending": descending} {
		before := slices.Clone(list)
		got, err := checkIDs(list)
		if err != nil || got != want {
			t.Errorf("%s: checkIDs = %d, %v; want %d, nil", name, got, err, want)
		}
		if !slices.Equal(list, before) {
			t.Errorf("%s: checkIDs reordered the caller's ids", name)
		}
		dup := slices.Clone(list)
		dup[n/2] = dup[n/3]
		if _, err := checkIDs(dup); !errors.Is(err, ErrIDsNotDistinct) {
			t.Errorf("%s with a repeat: err = %v, want ErrIDsNotDistinct", name, err)
		}
	}
}

func TestColorDegenerateGraphs(t *testing.T) {
	empty, err := Color(graph.NewBuilder(0).Build(), nil, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Coloring) != 0 {
		t.Error("empty graph should produce empty coloring")
	}
	// Edgeless graph: everything gets color 0.
	iso, err := Color(graph.NewBuilder(5).Build(), nil, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	if iso.PaletteSize != 1 {
		t.Errorf("edgeless graph palette = %d, want 1", iso.PaletteSize)
	}
	for v, c := range iso.Coloring {
		if c != 0 {
			t.Errorf("node %d color %d, want 0", v, c)
		}
	}
}

func TestCostModels(t *testing.T) {
	m := DefaultCostModelG2(5)
	if m.LinialBootstrap != 10 || m.ReductionSetup != 5 {
		t.Errorf("G² cost model for Δ=5: %+v", m)
	}
	if dm := DefaultCostModelG2(0); dm.LinialBootstrap != 2 {
		t.Errorf("degenerate Δ should clamp to 1: %+v", dm)
	}
	s := DefaultCostModelG().Scale(3)
	if s.TrialPerPhase != 6 || s.LinialBootstrap != 6 {
		t.Errorf("scaled cost model: %+v", s)
	}
	if s2 := DefaultCostModelG().Scale(0); s2.TrialPerPhase != DefaultCostModelG().TrialPerPhase {
		t.Error("scale factor < 1 should clamp to 1")
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.GNP(50, 0.08, 7)
	a, err := Color(g, nil, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Color(g, nil, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatal("deterministic algorithm produced different colorings")
		}
	}
}

func TestPropertyAlwaysValidAndWithinPalette(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(40, 0.12, seed)
		res, err := Color(g, nil, DefaultCostModelG())
		if err != nil {
			return false
		}
		if !verify.CheckD1(g, res.Coloring, res.PaletteSize).Valid {
			return false
		}
		return res.Coloring.MaxColor() < g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPrimeHelpers(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	for _, np := range []int{0, 1, 4, 9, 15, 21, 25} {
		if isPrime(np) {
			t.Errorf("isPrime(%d) = true", np)
		}
	}
	if nextPrime(14) != 17 || nextPrime(17) != 17 || nextPrime(-5) != 2 {
		t.Error("nextPrime gave wrong answers")
	}
	if pow(3, 4) != 81 || pow(2, 0) != 1 {
		t.Error("pow gave wrong answers")
	}
	if pow(1<<31, 4) <= 0 {
		t.Error("pow should saturate, not overflow to non-positive")
	}
}

func TestPolynomialHelpers(t *testing.T) {
	digits := make([]int, 3)
	digitsBaseQ(digits, 23, 5) // 23 = 3 + 4*5
	if digits[0] != 3 || digits[1] != 4 || digits[2] != 0 {
		t.Errorf("digitsBaseQ(23,5,3) = %v", digits)
	}
	// p(x) = 3 + 4x over F_5 at x=2: 3+8 = 11 mod 5 = 1.
	if got := evalPoly([]int{3, 4}, 2, 5); got != 1 {
		t.Errorf("evalPoly = %d, want 1", got)
	}
}

func TestLinialParamsConstraints(t *testing.T) {
	f := func(mRaw, dRaw uint16) bool {
		m := int(mRaw%5000) + 2
		d := int(dRaw%50) + 1
		deg, q := linialParams(m, d)
		if q <= deg*d {
			return false
		}
		return pow(q, deg+1) >= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReduceColorsRejectsImpossibleTarget(t *testing.T) {
	g := graph.Complete(5)
	res, err := Color(g, nil, DefaultCostModelG())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reduceColors(g, res.Coloring, g.MaxDegree()); err == nil {
		t.Error("target below Δ+1 should be rejected")
	}
}
