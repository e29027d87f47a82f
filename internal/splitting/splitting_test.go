package splitting

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
)

func TestOptionValidation(t *testing.T) {
	g := graph.Complete(10)
	parts := UniformPartition(10)
	if _, err := RandomizedSplit(g, parts, Options{Lambda: 0}); !errors.Is(err, ErrBadLambda) {
		t.Errorf("lambda 0: %v", err)
	}
	if _, err := RandomizedSplit(g, parts, Options{Lambda: 2}); !errors.Is(err, ErrBadLambda) {
		t.Errorf("lambda 2: %v", err)
	}
	if _, err := RandomizedSplit(g, []int{0, 1}, Options{Lambda: 0.5}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("short partition: %v", err)
	}
	bad := UniformPartition(10)
	bad[3] = -1
	if _, err := DeterministicSplit(g, bad, Options{Lambda: 0.5}); !errors.Is(err, ErrBadPartition) {
		t.Errorf("negative label: %v", err)
	}
}

func TestRandomizedSplitRoughlyBalanced(t *testing.T) {
	// On K_{200,200}, with lambda 0.5 and the paper threshold, the guarantee
	// binds (deg = 200 ≥ 12·log₂(400)/0.25 ≈ 415? no — use a lower coefficient
	// to make it bind) and a random split is balanced w.h.p.
	g := graph.CompleteBipartite(200, 200)
	parts := UniformPartition(g.NumNodes())
	res, err := RandomizedSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Constrained == 0 {
		t.Fatal("constraint should bind on K_{200,200} with coefficient 1")
	}
	if res.Violations != 0 {
		t.Errorf("random split violated %d of %d constraints (possible but very unlikely)", res.Violations, res.Constrained)
	}
	if res.MaxImbalance > 0.25 {
		t.Errorf("max imbalance %.3f too large", res.MaxImbalance)
	}
}

func TestLimitedIndependenceSplit(t *testing.T) {
	g := graph.CompleteBipartite(150, 150)
	parts := UniformPartition(g.NumNodes())
	res, err := LimitedIndependenceSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Constrained == 0 {
		t.Fatal("constraints should bind")
	}
	if res.Violations != 0 {
		t.Errorf("limited-independence split violated %d constraints", res.Violations)
	}
	// Different seeds give different splits.
	res2, err := LimitedIndependenceSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range res.Red {
		if res.Red[v] != res2.Red[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different splits")
	}
}

func TestDeterministicSplitZeroViolations(t *testing.T) {
	cases := map[string]*graph.Graph{
		"bipartite": graph.CompleteBipartite(120, 120),
		"clique":    graph.Complete(150),
		"gnp-dense": graph.GNP(200, 0.4, 2),
	}
	for name, g := range cases {
		parts := UniformPartition(g.NumNodes())
		res, err := DeterministicSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Constrained == 0 {
			t.Fatalf("%s: expected binding constraints", name)
		}
		if res.Violations != 0 {
			t.Errorf("%s: deterministic split violated %d of %d constraints",
				name, res.Violations, res.Constrained)
		}
		if res.Rounds <= 0 {
			t.Errorf("%s: deterministic split should charge rounds", name)
		}
		if res.DecompositionColors < 1 {
			t.Errorf("%s: expected at least one decomposition color", name)
		}
	}
}

func TestDeterministicSplitIsDeterministic(t *testing.T) {
	g := graph.GNP(100, 0.3, 5)
	parts := UniformPartition(100)
	a, err := DeterministicSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeterministicSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Red {
		if a.Red[v] != b.Red[v] {
			t.Fatal("deterministic split differed between runs")
		}
	}
}

func TestDeterministicSplitWithMultipleParts(t *testing.T) {
	// Two groups: each vertex of the clique has neighbours in both parts.
	g := graph.Complete(160)
	parts := make([]int, 160)
	for v := range parts {
		parts[v] = v % 2
	}
	res, err := DeterministicSplit(g, parts, Options{Lambda: 0.5, ThresholdCoeff: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
	if res.Constrained == 0 {
		t.Error("expected binding constraints in both parts")
	}
}

func TestPaperThresholdIsVacuousAtSmallScale(t *testing.T) {
	// Documents the scaling note from DESIGN.md: with the paper's coefficient
	// 12 and λ = 0.1, the degree threshold 12·log n/λ² exceeds every degree in
	// a small graph, so no constraint binds and any split is valid.
	g := graph.GNP(100, 0.2, 1)
	parts := UniformPartition(100)
	res, err := RandomizedSplit(g, parts, Options{Lambda: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Constrained != 0 {
		t.Errorf("expected no binding constraints, got %d", res.Constrained)
	}
	if res.Violations != 0 {
		t.Errorf("vacuous constraints cannot be violated, got %d", res.Violations)
	}
}

func TestRefinePartitionAndMaxPartDegree(t *testing.T) {
	g := graph.Complete(8)
	parts := UniformPartition(8)
	if got := MaxPartDegree(g, parts); got != 7 {
		t.Errorf("MaxPartDegree of K8 single part = %d, want 7", got)
	}
	red := []bool{true, false, true, false, true, false, true, false}
	refined := RefinePartition(parts, red)
	distinct := make(map[int]bool)
	for _, p := range refined {
		distinct[p] = true
	}
	if len(distinct) != 2 {
		t.Errorf("refining one part with a proper red/blue split should give 2 parts, got %d", len(distinct))
	}
	if got := MaxPartDegree(g, refined); got != 4 {
		t.Errorf("MaxPartDegree after refinement = %d, want 4", got)
	}
	// Labels must be dense.
	for _, p := range refined {
		if p < 0 || p >= len(distinct) {
			t.Errorf("non-dense label %d", p)
		}
	}
}

// TestMaxPartDegreeMatchesPerNodeMaps checks the shared-counter form against
// a fresh per-node map on random graphs and sparse, non-dense labels, where a
// counter left unreset by one node would inflate the next node's counts.
func TestMaxPartDegreeMatchesPerNodeMaps(t *testing.T) {
	f := func(seed int64, labels uint8) bool {
		g := graph.GNP(60, 0.15, seed)
		parts := make([]int, g.NumNodes())
		for v := range parts {
			parts[v] = (v * 7) % (int(labels%9) + 1) * 3
		}
		want := 0
		for v := 0; v < g.NumNodes(); v++ {
			perPart := make(map[int]int)
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				perPart[parts[u]]++
				want = max(want, perPart[parts[u]])
			}
		}
		return MaxPartDegree(g, parts) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinomialSuffix(t *testing.T) {
	s := binomialSuffix(4)
	// P[Bin(4,1/2) >= 0] = 1, >= 5 would be 0 (not in slice), >= 2 = 11/16.
	if math.Abs(s[0]-1) > 1e-12 {
		t.Errorf("s[0] = %v, want 1", s[0])
	}
	if math.Abs(s[2]-11.0/16.0) > 1e-12 {
		t.Errorf("s[2] = %v, want 11/16", s[2])
	}
	if math.Abs(s[4]-1.0/16.0) > 1e-12 {
		t.Errorf("s[4] = %v, want 1/16", s[4])
	}
}

func TestEstimatorTailAbove(t *testing.T) {
	e := &estimator{tails: make(map[int][]float64)}
	if got := e.tailAbove(10, -0.5); got != 1 {
		t.Errorf("tailAbove with negative t = %v, want 1", got)
	}
	if got := e.tailAbove(10, 10); got != 0 {
		t.Errorf("tailAbove with t >= m = %v, want 0", got)
	}
	// P[Bin(4,1/2) > 1.5] = P[X >= 2] = 11/16.
	if got := e.tailAbove(4, 1.5); math.Abs(got-11.0/16.0) > 1e-12 {
		t.Errorf("tailAbove(4,1.5) = %v, want 11/16", got)
	}
}

func TestPropertyRefineKeepsPartitionValid(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(40, 0.2, int64(seed%10))
		parts := UniformPartition(40)
		res, err := RandomizedSplit(g, parts, Options{Lambda: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		refined := RefinePartition(parts, res.Red)
		if len(refined) != 40 {
			return false
		}
		// Dense labels starting at 0.
		maxLbl := 0
		for _, p := range refined {
			if p < 0 {
				return false
			}
			if p > maxLbl {
				maxLbl = p
			}
		}
		seen := make([]bool, maxLbl+1)
		for _, p := range refined {
			seen[p] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
