package mis

import (
	"errors"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
)

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(graph.Path(4), Options{K: 0}, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("K=0: %v", err)
	}
}

func TestDistance1MIS(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":    graph.GNP(120, 0.05, 1),
		"grid":   graph.Grid(9, 9),
		"clique": graph.Complete(15),
		"star":   graph.Star(20),
		"path":   graph.Path(40),
		"empty":  graph.NewBuilder(7).Build(),
	}
	for name, g := range graphs {
		res, err := Run(g, Options{K: 1}, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Verify(g, res.InSet, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumNodes() > 0 && res.Metrics.TotalRounds() == 0 {
			t.Errorf("%s: expected positive round charge", name)
		}
	}
}

func TestDistance2MIS(t *testing.T) {
	g := graph.GNP(100, 0.06, 2)
	res, err := Run(g, Options{K: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.InSet, 2); err != nil {
		t.Error(err)
	}
	// A distance-2 MIS is in particular an independent set of G², i.e. a set
	// of nodes that could all legally share one color in a d2-coloring.
	sq := g.Square()
	for v := 0; v < g.NumNodes(); v++ {
		if !res.InSet[v] {
			continue
		}
		for _, u := range sq.Neighbors(graph.NodeID(v)) {
			if res.InSet[u] {
				t.Fatalf("members %d and %d adjacent in G²", v, u)
			}
		}
	}
}

func TestCliqueHasExactlyOneMember(t *testing.T) {
	g := graph.Complete(12)
	res, err := Run(g, Options{K: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, in := range res.InSet {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Errorf("MIS of a clique has %d members, want 1", count)
	}
	// Distance-2 MIS of a star: only one member possible as well.
	star := graph.Star(10)
	res2, err := Run(star, Options{K: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	count = 0
	for _, in := range res2.InSet {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Errorf("distance-2 MIS of a star has %d members, want 1", count)
	}
}

func TestRoundChargeScalesWithK(t *testing.T) {
	g := graph.Grid(8, 8)
	r1, err := Run(g, Options{K: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(g, Options{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	perPhase1 := float64(r1.Metrics.TotalRounds()) / float64(r1.Phases)
	perPhase3 := float64(r3.Metrics.TotalRounds()) / float64(r3.Phases)
	if perPhase3 != 3*perPhase1 {
		t.Errorf("per-phase cost should scale linearly in k: k=1 → %.1f, k=3 → %.1f", perPhase1, perPhase3)
	}
}

func TestMaxPhasesExhaustion(t *testing.T) {
	g := graph.Complete(30)
	// Zero phases cannot complete.
	if _, err := Run(g, Options{K: 1, MaxPhases: -1}, 1); err != nil {
		t.Fatalf("default phase budget should complete: %v", err)
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	g := graph.Path(5)
	// Two adjacent members.
	bad := []bool{true, true, false, false, true}
	if err := Verify(g, bad, 1); err == nil {
		t.Error("adjacent members should be rejected")
	}
	// Not maximal: node 4 uncovered.
	notMax := []bool{true, false, false, false, false}
	if err := Verify(g, notMax, 1); err == nil {
		t.Error("non-maximal set should be rejected")
	}
	// Valid distance-1 MIS of a path.
	good := []bool{true, false, true, false, true}
	if err := Verify(g, good, 1); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	if err := Verify(g, []bool{true}, 1); err == nil {
		t.Error("length mismatch should be rejected")
	}
	if err := Verify(g, good, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
}

func TestPropertyMISAlwaysValid(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%3) + 1
		g := graph.GNP(50, 0.08, int64(seed%16))
		res, err := Run(g, Options{K: k}, seed)
		if err != nil {
			return false
		}
		return Verify(g, res.InSet, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	g := graph.GNP(60, 0.1, 3)
	a, err := Run(g, Options{K: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{K: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatal("same seed produced different sets")
		}
	}
}
