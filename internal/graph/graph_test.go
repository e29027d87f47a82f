package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if got := b.NumNodes(); got != 4 {
		t.Fatalf("NumNodes() = %d, want 4", got)
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatalf("AddEdge(1,0) duplicate should be a no-op, got %v", err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatalf("AddEdge(2,3): %v", err)
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) should be true in both directions")
	}
	if b.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) should be false")
	}
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Errorf("built graph has n=%d m=%d, want n=4 m=2", g.NumNodes(), g.NumEdges())
	}
	if g.MaxDegree() != 1 {
		t.Errorf("MaxDegree() = %d, want 1", g.MaxDegree())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("AddEdge(1,1) = %v, want ErrSelfLoop", err)
	}
	if err := b.AddEdge(0, 3); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("AddEdge(0,3) = %v, want ErrNodeOutOfRange", err)
	}
	if err := b.AddEdge(-1, 0); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("AddEdge(-1,0) = %v, want ErrNodeOutOfRange", err)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges() = %d, want 5", g.NumEdges())
	}
	for u := 0; u < 5; u++ {
		if g.Degree(NodeID(u)) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", u, g.Degree(NodeID(u)))
		}
	}
	if _, err := FromEdges(2, []Edge{{0, 0}}); err == nil {
		t.Error("FromEdges with self-loop should error")
	}
}

func TestEdgeNormalize(t *testing.T) {
	e := Edge{U: 5, V: 2}.Normalize()
	if e.U != 2 || e.V != 5 {
		t.Errorf("Normalize() = %+v, want {2 5}", e)
	}
	e = Edge{U: 1, V: 3}.Normalize()
	if e.U != 1 || e.V != 3 {
		t.Errorf("Normalize() = %+v, want {1 3}", e)
	}
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("HasEdge(0,2) should hold in both directions")
	}
	if g.HasEdge(1, 2) {
		t.Error("HasEdge(1,2) should be false")
	}
	if g.HasEdge(0, 9) || g.HasEdge(-1, 0) {
		t.Error("HasEdge out of range should be false")
	}
	nbrs := g.Neighbors(0)
	if len(nbrs) != 3 {
		t.Fatalf("Neighbors(0) has %d entries, want 3", len(nbrs))
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Error("Neighbors(0) not sorted")
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	orig := []Edge{{0, 1}, {1, 2}, {0, 3}, {2, 3}}
	g := MustFromEdges(4, orig)
	edges := g.Edges()
	if len(edges) != len(orig) {
		t.Fatalf("Edges() has %d entries, want %d", len(edges), len(orig))
	}
	g2, err := FromEdges(4, edges)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Errorf("rebuilt edge count %d != %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Cycle(6)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() || c.MaxDegree() != g.MaxDegree() {
		t.Error("clone does not match original")
	}
	// Mutating the clone's CSR storage must not affect the original.
	c.tgt[0] = 99
	if g.tgt[0] == 99 {
		t.Error("Clone should deep-copy the CSR arrays")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub := g.InducedSubgraphOf([]NodeID{0, 2, 3}, make([]int32, 5))
	if sub.NumNodes() != 3 {
		t.Fatalf("induced subgraph has %d nodes, want 3", sub.NumNodes())
	}
	if sub.NumEdges() != 3 {
		t.Errorf("induced subgraph of K5 on 3 nodes should be a triangle, got m=%d", sub.NumEdges())
	}
}

// TestInducedSubgraphOfMatchesMask drives the list form with one index
// reused across many extractions — so every call sees the previous calls'
// stale entries — and checks each result against an edge-list oracle built
// from a keep mask through FromEdges, on random graphs and node sets.
// The same extractions into one reused Subgraph (growing and shrinking
// across calls) must give the same CSR, an edge index whose Rev matches a
// freshly searched one, and Outside lists holding exactly the dropped
// neighbors.
func TestInducedSubgraphOfMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var reused Subgraph
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(120)
		g := GNP(n, rng.Float64()*0.2, int64(trial))
		index := make([]int32, n)
		for i := range index {
			index[i] = int32(rng.Intn(2*n+1) - n) // arbitrary, including -n..n
		}
		for pick := 0; pick < 5; pick++ {
			keep := make([]bool, n)
			var nodes []NodeID
			density := rng.Float64()
			for v := range keep {
				if rng.Float64() < density {
					keep[v] = true
					nodes = append(nodes, NodeID(v))
				}
			}
			got := g.InducedSubgraphOf(nodes, index)
			newID := make(map[NodeID]NodeID, len(nodes))
			for i, v := range nodes {
				newID[v] = NodeID(i)
			}
			var edges []Edge
			for _, e := range g.Edges() {
				if keep[e.U] && keep[e.V] {
					edges = append(edges, Edge{U: newID[e.U], V: newID[e.V]})
				}
			}
			oracle, err := FromEdges(len(nodes), edges)
			if err != nil {
				t.Fatal(err)
			}
			into := g.InducedSubgraphInto(nodes, index, &reused)
			for _, h := range []*Graph{oracle, into} {
				if !slices.Equal(got.off, h.off) || !slices.Equal(got.tgt, h.tgt) ||
					got.NumEdges() != h.NumEdges() || got.MaxDegree() != h.MaxDegree() {
					t.Fatalf("trial %d pick %d: list form %v differs from %v", trial, pick, got, h)
				}
			}
			if rev := buildEdgeIndex(into).Rev; !slices.Equal(into.EdgeIndex().Rev, rev) {
				t.Fatalf("trial %d pick %d: Rev %v, want %v", trial, pick, into.EdgeIndex().Rev, rev)
			}
			for i, v := range nodes {
				var dropped []NodeID
				for _, w := range g.Neighbors(v) {
					if !keep[w] {
						dropped = append(dropped, w)
					}
				}
				if out := reused.Outside(NodeID(i)); len(out)+len(dropped) > 0 && !slices.Equal(out, dropped) {
					t.Fatalf("trial %d pick %d: Outside(%d) = %v, want %v", trial, pick, i, out, dropped)
				}
			}
		}
	}
}

func TestInducedSubgraphOfPanicsOnBadList(t *testing.T) {
	g := Complete(4)
	for name, nodes := range map[string][]NodeID{
		"unsorted":  {2, 1},
		"duplicate": {1, 1},
		"range":     {0, 4},
		"negative":  {-1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: InducedSubgraphOf(%v) should panic", name, nodes)
				}
			}()
			g.InducedSubgraphOf(nodes, make([]int32, 4))
		}()
	}
}

// TestInducedSubgraphPanicsOnBadMask checks that the list form refuses a
// scratch index (its per-node mask of new IDs) shorter than the graph.
func TestInducedSubgraphPanicsOnBadMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InducedSubgraphOf with a wrong-length index should panic")
		}
	}()
	Complete(4).InducedSubgraphOf([]NodeID{0}, make([]int32, 1))
}

func TestDegreeHistogramAndAverage(t *testing.T) {
	g := Star(5) // center degree 4, leaves degree 1
	h := make(map[int]int)
	for u := 0; u < g.NumNodes(); u++ {
		h[g.Degree(NodeID(u))]++
	}
	if len(h) != 2 || h[4] != 1 || h[1] != 4 {
		t.Errorf("histogram = %v, want {4:1, 1:4}", h)
	}
	if got, want := g.AverageDegree(), 2.0*4/5; got != want {
		t.Errorf("AverageDegree() = %v, want %v", got, want)
	}
	empty := NewBuilder(0).Build()
	if empty.AverageDegree() != 0 {
		t.Error("empty graph average degree should be 0")
	}
}

func TestStringSummaries(t *testing.T) {
	g := Cycle(4)
	if g.String() == "" {
		t.Error("String() should be non-empty")
	}
	s := GeneratorSpec{Kind: "gnp", N: 10, P: 0.5}
	if s.String() == "" {
		t.Error("GeneratorSpec.String() should be non-empty")
	}
}

// Property: every neighbor relation produced by Build is symmetric and sorted.
func TestPropertyAdjacencySymmetricSorted(t *testing.T) {
	f := func(seed int64) bool {
		g := GNP(40, 0.15, seed)
		for u := 0; u < g.NumNodes(); u++ {
			nbrs := g.Neighbors(NodeID(u))
			for i, v := range nbrs {
				if !g.HasEdge(v, NodeID(u)) {
					return false
				}
				if i > 0 && nbrs[i-1] >= v {
					return false
				}
				if v == NodeID(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: sum of degrees equals twice the edge count.
func TestPropertyHandshakeLemma(t *testing.T) {
	f := func(seed int64) bool {
		g := GNP(60, 0.1, seed)
		sum := 0
		for u := 0; u < g.NumNodes(); u++ {
			sum += g.Degree(NodeID(u))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
