package graph

import (
	"fmt"
	"slices"
	"testing"

	"d2color/internal/rng"
)

func TestOverlayBasicOps(t *testing.T) {
	base := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	o := NewOverlay(base)
	if o.NumNodes() != 4 || o.NumEdges() != 3 || o.NumLiveNodes() != 4 {
		t.Fatalf("fresh overlay: n=%d m=%d live=%d", o.NumNodes(), o.NumEdges(), o.NumLiveNodes())
	}

	// Inserting an existing base edge is a no-op.
	if err := o.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if o.NumEdges() != 3 {
		t.Fatalf("no-op AddEdge changed state: m=%d", o.NumEdges())
	}

	// Delete a base edge, then re-add it (un-delete path).
	if !o.RemoveEdge(1, 2) || o.HasEdge(1, 2) || o.NumEdges() != 2 {
		t.Fatalf("RemoveEdge(1,2) failed: m=%d has=%v", o.NumEdges(), o.HasEdge(1, 2))
	}
	if o.RemoveEdge(1, 2) {
		t.Fatal("double RemoveEdge reported true")
	}
	if err := o.AddEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	if !o.HasEdge(1, 2) || o.NumEdges() != 3 {
		t.Fatalf("un-delete failed: m=%d", o.NumEdges())
	}

	// New delta edge, then remove it again.
	if err := o.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if !o.HasEdge(3, 0) || o.NumEdges() != 4 {
		t.Fatal("delta edge missing")
	}
	if !o.RemoveEdge(0, 3) || o.NumEdges() != 3 {
		t.Fatal("delta edge removal failed")
	}

	// Node append + wiring.
	v := o.AddNodes(2)
	if v != 4 || o.NumNodes() != 6 {
		t.Fatalf("AddNodes: first=%d n=%d", v, o.NumNodes())
	}
	if err := o.AddEdge(4, 5); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(4, 0); err != nil {
		t.Fatal(err)
	}
	if got := o.AppendNeighbors(nil, 4); !slices.Equal(got, []NodeID{0, 5}) {
		t.Fatalf("neighbors of appended node: %v", got)
	}
	visited := 0
	o.ForEachNeighbor(4, func(NodeID) bool { visited++; return false })
	if visited != 1 {
		t.Fatalf("ForEachNeighbor early stop visited %d nodes, want 1", visited)
	}

	// Node removal tombstones incident edges and blocks further wiring.
	if !o.RemoveNode(1) || o.Alive(1) || o.NumLiveNodes() != 5 {
		t.Fatal("RemoveNode(1) failed")
	}
	if o.NumEdges() != 3 { // lost {0,1} and {1,2}
		t.Fatalf("edges after RemoveNode: m=%d want 3", o.NumEdges())
	}
	if o.HasEdge(0, 1) || o.Degree(1) != 0 {
		t.Fatal("tombstoned node still adjacent")
	}
	if err := o.AddEdge(1, 3); err == nil {
		t.Fatal("AddEdge to removed node succeeded")
	}
	if err := o.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestOverlayCompactPreservesIDs(t *testing.T) {
	base := MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}})
	o := NewOverlay(base)
	o.RemoveNode(1)
	if err := o.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	g := o.Compact()
	if g.NumNodes() != 5 {
		t.Fatalf("Compact changed node space: n=%d", g.NumNodes())
	}
	if g.Degree(1) != 0 {
		t.Fatalf("removed node has degree %d in compacted graph", g.Degree(1))
	}
	want := []Edge{{0, 2}, {3, 4}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("compacted edges %v want %v", got, want)
	}
}

// oracleState mirrors an Overlay with a naive edge map so churn scripts can
// be checked against a from-scratch rebuild.
type oracleState struct {
	n     int
	alive []bool
	edges map[Edge]bool
}

func (s *oracleState) addEdge(u, v NodeID)    { s.edges[Edge{u, v}.Normalize()] = true }
func (s *oracleState) removeEdge(u, v NodeID) { delete(s.edges, Edge{u, v}.Normalize()) }

func (s *oracleState) rebuild(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(s.n)
	for e := range s.edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestOverlayMatchesRebuiltCSROracle is the delta-overlay vs rebuilt-CSR
// oracle: random churn scripts (edge insert/delete, node append/remove) run
// against both an Overlay and a naive edge-map mirror, and after every batch
// the overlay's merged adjacency and its Compact() output must equal the
// from-scratch rebuilt CSR.
func TestOverlayMatchesRebuiltCSROracle(t *testing.T) {
	families := []struct {
		name string
		base *Graph
	}{
		{"gnp", GNPWithAverageDegree(120, 6, 3)},
		{"unitdisk", UnitDisk(90, 0.16, 5)},
		{"grid", Grid(8, 9)},
		{"star", Star(30)},
	}
	for _, fam := range families {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", fam.name, seed), func(t *testing.T) {
				o := NewOverlay(fam.base)
				st := &oracleState{n: fam.base.NumNodes(), alive: make([]bool, fam.base.NumNodes()), edges: map[Edge]bool{}}
				for i := range st.alive {
					st.alive[i] = true
				}
				for _, e := range fam.base.Edges() {
					st.edges[e] = true
				}
				src := rng.New(seed)
				for batch := 0; batch < 6; batch++ {
					churnBatch(t, o, st, src, 25)
					checkOverlayAgainstOracle(t, o, st)
				}
			})
		}
	}
}

// churnBatch applies ops random mutations to both the overlay and the mirror.
func churnBatch(t *testing.T, o *Overlay, st *oracleState, src *rng.Source, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		switch op := src.Intn(100); {
		case op < 45: // insert edge
			u, v := NodeID(src.Intn(st.n)), NodeID(src.Intn(st.n))
			err := o.AddEdge(u, v)
			if u == v || !st.alive[u] || !st.alive[v] {
				if err == nil {
					t.Fatalf("AddEdge(%d,%d) accepted invalid endpoints", u, v)
				}
				continue
			}
			if err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
			}
			st.addEdge(u, v)
		case op < 80: // delete edge
			u, v := NodeID(src.Intn(st.n)), NodeID(src.Intn(st.n))
			removed := o.RemoveEdge(u, v)
			want := u != v && st.alive[u] && st.alive[v] && st.edges[Edge{u, v}.Normalize()]
			if removed != want {
				t.Fatalf("RemoveEdge(%d,%d)=%v want %v", u, v, removed, want)
			}
			if removed {
				st.removeEdge(u, v)
			}
		case op < 90: // append a node and wire it to two random live nodes
			v := o.AddNodes(1)
			st.n++
			st.alive = append(st.alive, true)
			if int(v) != st.n-1 {
				t.Fatalf("AddNodes returned %d want %d", v, st.n-1)
			}
			for j := 0; j < 2; j++ {
				u := NodeID(src.Intn(st.n))
				if u != v && st.alive[u] {
					if err := o.AddEdge(v, u); err != nil {
						t.Fatal(err)
					}
					st.addEdge(v, u)
				}
			}
		default: // remove a node
			v := NodeID(src.Intn(st.n))
			removed := o.RemoveNode(v)
			if removed != st.alive[v] {
				t.Fatalf("RemoveNode(%d)=%v want %v", v, removed, st.alive[v])
			}
			if removed {
				st.alive[v] = false
				for e := range st.edges {
					if e.U == v || e.V == v {
						delete(st.edges, e)
					}
				}
			}
		}
	}
}

func checkOverlayAgainstOracle(t *testing.T, o *Overlay, st *oracleState) {
	t.Helper()
	want := st.rebuild(t)
	if o.NumNodes() != want.NumNodes() || o.NumEdges() != want.NumEdges() {
		t.Fatalf("overlay n=%d m=%d; oracle n=%d m=%d", o.NumNodes(), o.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	compact := o.Compact()
	if !slices.Equal(compact.Edges(), want.Edges()) {
		t.Fatal("Compact() edge set diverges from oracle rebuild")
	}
	var got []NodeID
	for u := 0; u < st.n; u++ {
		v := NodeID(u)
		if got := o.Degree(v); got != want.Degree(v) {
			t.Fatalf("Degree(%d)=%d oracle %d", u, got, want.Degree(v))
		}
		if got = o.AppendNeighbors(got[:0], v); !slices.Equal(got, want.Neighbors(v)) {
			t.Fatalf("Neighbors(%d)=%v oracle %v", u, got, want.Neighbors(v))
		}
	}
}
