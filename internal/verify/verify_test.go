package verify

import (
	"reflect"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
)

func pathColoring(n int, colors ...int) coloring.Coloring {
	c := coloring.New(n)
	for i, col := range colors {
		c[i] = col
	}
	return c
}

func TestCheckD1Valid(t *testing.T) {
	g := graph.Path(4)
	c := pathColoring(4, 0, 1, 0, 1)
	rep := CheckD1(g, c, 2)
	if !rep.Valid {
		t.Fatalf("valid 2-coloring of a path rejected: %v", rep.Error())
	}
	if rep.ColorsUsed != 2 || rep.MaxColor != 1 {
		t.Errorf("stats = %+v", rep)
	}
	if rep.Error() != nil {
		t.Error("Error() should be nil for a valid report")
	}
}

func TestCheckD1Conflict(t *testing.T) {
	g := graph.Path(3)
	c := pathColoring(3, 0, 0, 1)
	rep := CheckD1(g, c, 2)
	if rep.Valid {
		t.Fatal("adjacent same-colored nodes should be rejected")
	}
	if rep.Violations[0].Kind != "conflict-d1" {
		t.Errorf("violation kind = %q, want conflict-d1", rep.Violations[0].Kind)
	}
	if rep.Error() == nil {
		t.Error("Error() should be non-nil for an invalid report")
	}
}

func TestCheckD2ValidAndConflict(t *testing.T) {
	// Path 0-1-2: a valid d2-coloring needs 3 colors for the middle section.
	g := graph.Path(3)
	valid := pathColoring(3, 0, 1, 2)
	if rep := CheckD2(g, valid, 3); !rep.Valid {
		t.Fatalf("valid d2-coloring rejected: %v", rep.Error())
	}
	// 0 and 2 are at distance 2, same color -> invalid for d2, valid for d1.
	bad := pathColoring(3, 0, 1, 0)
	if rep := CheckD1(g, bad, 2); !rep.Valid {
		t.Error("distance-2 conflict should be fine for a d1 check")
	}
	rep := CheckD2(g, bad, 2)
	if rep.Valid {
		t.Fatal("distance-2 conflict not detected")
	}
	if rep.Violations[0].Kind != "conflict-d2" {
		t.Errorf("violation kind = %q, want conflict-d2", rep.Violations[0].Kind)
	}
}

func TestUncoloredDetected(t *testing.T) {
	g := graph.Path(3)
	c := coloring.New(3)
	c[0] = 0
	rep := CheckD2(g, c, 3)
	if rep.Valid {
		t.Fatal("incomplete coloring accepted")
	}
	foundUncolored := false
	for _, v := range rep.Violations {
		if v.Kind == "uncolored" {
			foundUncolored = true
		}
	}
	if !foundUncolored {
		t.Error("missing 'uncolored' violation")
	}
}

func TestPaletteBound(t *testing.T) {
	g := graph.Path(2)
	c := pathColoring(2, 0, 9)
	rep := CheckD1(g, c, 5)
	if rep.Valid {
		t.Fatal("color outside palette accepted")
	}
	if rep.Violations[0].Kind != "palette" {
		t.Errorf("violation kind = %q, want palette", rep.Violations[0].Kind)
	}
	// paletteSize <= 0 skips the bound check.
	if rep := CheckD1(g, c, 0); !rep.Valid {
		t.Error("palette bound should be skipped when paletteSize <= 0")
	}
}

func TestLengthMismatch(t *testing.T) {
	g := graph.Path(4)
	c := coloring.New(2)
	if rep := CheckD2(g, c, 3); rep.Valid {
		t.Error("length mismatch should be rejected")
	}
	if rep := CheckPartialD2(g, c); rep.Valid {
		t.Error("length mismatch should be rejected by partial check too")
	}
}

func TestCheckPartialD2(t *testing.T) {
	g := graph.Star(5) // G² is a clique on 5 nodes
	c := coloring.New(5)
	c[1] = 3
	c[2] = 4
	if rep := CheckPartialD2(g, c); !rep.Valid {
		t.Fatalf("conflict-free partial coloring rejected: %v", rep.Error())
	}
	c[3] = 3 // leaves 1 and 3 share a color but are d2-adjacent through the hub
	rep := CheckPartialD2(g, c)
	if rep.Valid {
		t.Fatal("partial d2 conflict not detected")
	}
}

func TestGreedySquareColoringAlwaysValid(t *testing.T) {
	// Sanity: a sequential greedy coloring of G² must pass CheckD2 on a
	// variety of graphs. This also exercises the checker on larger inputs.
	gens := []*graph.Graph{
		graph.GNP(60, 0.08, 1),
		graph.Grid(6, 7),
		graph.CliqueChain(4, 5, 0),
		graph.Star(20),
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(1).Build(),
	}
	for gi, g := range gens {
		sq := g.Square()
		c := coloring.New(g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			used := make(map[int]bool)
			for _, u := range sq.Neighbors(graph.NodeID(v)) {
				if c[u] != coloring.Uncolored {
					used[c[u]] = true
				}
			}
			col := 0
			for used[col] {
				col++
			}
			c[v] = col
		}
		rep := CheckD2(g, c, 0)
		if !rep.Valid {
			t.Errorf("graph %d: greedy square coloring rejected: %v", gi, rep.Error())
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "conflict-d2", U: 1, V: 2, Info: "share color 3"}
	if v.String() == "" {
		t.Error("Violation.String should be non-empty")
	}
}

func TestViolationCap(t *testing.T) {
	// A monochromatic clique produces a quadratic number of conflicts; the
	// report must stay bounded.
	g := graph.Complete(40)
	c := coloring.New(40)
	for i := range c {
		c[i] = 0
	}
	rep := CheckD2(g, c, 1)
	if rep.Valid {
		t.Fatal("monochromatic clique accepted")
	}
	if len(rep.Violations) > maxViolations {
		t.Errorf("violations not capped: %d", len(rep.Violations))
	}
}

func TestCheckPartialD2DetectsNegativeSentinelConflicts(t *testing.T) {
	// Regression: a buggy negative color (any sentinel other than Uncolored)
	// shared within distance 2 must still be reported — CheckPartialD2 has no
	// palette bound, so the conflict scan is the only thing that can catch it.
	g := graph.Path(3)
	c := coloring.New(3)
	c[0] = -2
	c[2] = -2 // distance 2 through node 1
	rep := CheckPartialD2(g, c)
	if rep.Valid {
		t.Fatal("two distance-2 nodes sharing color -2 must be invalid")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "conflict-d2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a conflict-d2 violation, got %v", rep.Violations)
	}
}

func TestCheckD2SurvivesHugeColors(t *testing.T) {
	// Regression: a corrupt coloring with an enormous color value must yield
	// a Report (palette violation + detected conflicts), not an OOM-sized
	// dense table or a makeslice panic.
	g := graph.Path(3)
	c := coloring.New(3)
	huge := int(^uint(0) >> 1) // math.MaxInt
	c[0] = huge
	c[1] = 5
	c[2] = huge // conflicts with node 0 at distance 2
	rep := CheckD2(g, c, 10)
	if rep.Valid {
		t.Fatal("huge out-of-palette colors must be invalid")
	}
	foundConflict := false
	for _, v := range rep.Violations {
		if v.Kind == "conflict-d2" {
			foundConflict = true
		}
	}
	if !foundConflict {
		t.Fatalf("the shared huge color must still be reported as a d2 conflict, got %v", rep.Violations)
	}
}

// TestCheckerGenerationWraparound forces the per-color marks' generation
// counter to wrap mid-pass: the Checker must clear its marks and keep
// reporting exactly what a fresh Checker reports.
func TestCheckerGenerationWraparound(t *testing.T) {
	g := graph.GNP(60, 0.1, 5)
	c := greedyD2(g)
	c[7] = c[g.Neighbors(7)[0]] // one d1 conflict, hence d2 conflicts
	want := NewChecker().CheckD2(g, c, 0)
	ch := NewChecker()
	ch.CheckD2(g, c, 0)      // size the marks
	ch.gen = ^uint16(0) - 55 // wrap after 56 of the 60 neighborhoods
	for i := range ch.marks {
		ch.marks[i] = 1000 // stale marks from a generation the wrap skips
	}
	got := ch.CheckD2(g, c, 0)
	if ch.gen == 0 || int(ch.gen) > g.NumNodes() {
		t.Fatalf("gen after wrap = %d, want in [1, %d]", ch.gen, g.NumNodes())
	}
	for col, m := range ch.marks {
		if m > ch.gen {
			t.Fatalf("mark of color %d = %d survived the wrap to gen %d", col, m, ch.gen)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report after wraparound differs:\n got %+v\nwant %+v", got, want)
	}
}
