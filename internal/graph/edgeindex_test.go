package graph

import "testing"

func checkEdgeIndex(t *testing.T, g *Graph) {
	t.Helper()
	ix := g.EdgeIndex()
	if got, want := ix.NumSlots(), 2*g.NumEdges(); got != want {
		t.Fatalf("NumSlots = %d, want %d", got, want)
	}
	if len(ix.Offsets) != g.NumNodes()+1 {
		t.Fatalf("len(Offsets) = %d, want %d", len(ix.Offsets), g.NumNodes()+1)
	}
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Neighbors(NodeID(u))
		if got := int(ix.Offsets[u+1] - ix.Offsets[u]); got != len(nbrs) {
			t.Fatalf("node %d: slot range %d, want degree %d", u, got, len(nbrs))
		}
		for i, v := range nbrs {
			e := ix.Offsets[u] + int32(i)
			if ix.Targets[e] != v {
				t.Fatalf("slot %d: target %d, want %d", e, ix.Targets[e], v)
			}
			// Rev is the reverse edge and an involution.
			r := ix.Rev[e]
			if ix.Targets[r] != NodeID(u) || r < ix.Offsets[v] || r >= ix.Offsets[v+1] {
				t.Fatalf("Rev[%d] = %d is not the slot of (%d→%d)", e, r, v, u)
			}
			if ix.Rev[r] != e {
				t.Fatalf("Rev[Rev[%d]] = %d, want %d", e, ix.Rev[r], e)
			}
			// Slot lookup agrees with the layout.
			got, ok := ix.Slot(NodeID(u), v)
			if !ok || got != e {
				t.Fatalf("Slot(%d,%d) = %d,%v, want %d,true", u, v, got, ok, e)
			}
		}
	}
}

func TestEdgeIndexFamilies(t *testing.T) {
	for name, g := range map[string]*Graph{
		"path":     Path(7),
		"cycle":    Cycle(5),
		"star":     Star(9),
		"complete": Complete(8),
		"gnp":      GNP(60, 0.1, 3),
		"isolated": MustFromEdges(4, []Edge{{U: 1, V: 3}}), // nodes 0,2 isolated
	} {
		t.Run(name, func(t *testing.T) { checkEdgeIndex(t, g) })
	}
}

func TestEdgeIndexEmptyAndMissing(t *testing.T) {
	g := MustFromEdges(3, nil)
	ix := g.EdgeIndex()
	if ix.NumSlots() != 0 {
		t.Errorf("empty graph NumSlots = %d, want 0", ix.NumSlots())
	}
	if _, ok := ix.Slot(0, 1); ok {
		t.Error("Slot on a non-edge should report false")
	}
	if _, ok := ix.Slot(-1, 0); ok {
		t.Error("Slot with out-of-range source should report false")
	}
}

func TestEdgeIndexIsCached(t *testing.T) {
	g := Cycle(4)
	if g.EdgeIndex() != g.EdgeIndex() {
		t.Error("EdgeIndex should build once and return the same index")
	}
}
