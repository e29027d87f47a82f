package graph

import (
	"slices"
	"sort"
	"testing"
)

// dist2TestSpecs is the generator-family grid the Dist2View property tests
// sweep: every GeneratorSpec kind at a size where the Square() oracle is
// still cheap to build.
func dist2TestSpecs() []GeneratorSpec {
	return []GeneratorSpec{
		{Kind: "gnp", N: 60, P: 0.08},
		{Kind: "gnp-avg", N: 60, P: 6},
		{Kind: "regular", N: 48, Degree: 5},
		{Kind: "grid", N: 7, M: 8},
		{Kind: "torus", N: 6, M: 6},
		{Kind: "tree", N: 4, Degree: 3},
		{Kind: "cliquechain", N: 5, M: 6},
		{Kind: "unitdisk", N: 70, P: 0.2},
		{Kind: "taskresource", N: 20, M: 15, Degree: 3},
		{Kind: "complete", N: 12},
		{Kind: "cycle", N: 15},
		{Kind: "path", N: 10},
		{Kind: "star", N: 12},
		{Kind: "doublestar", Degree: 5},
		{Kind: "petersen"},
		{Kind: "hoffman-singleton"},
	}
}

func sortedStream(d *Dist2View, u NodeID) []NodeID {
	out := d.AppendDist2(nil, u)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestPropertyDist2ViewMatchesSquareOracle checks, for every generator family
// and three seeds, that the streaming view agrees with the materialized
// Square() oracle on membership, per-node degree, and the maximum distance-2
// degree.
func TestPropertyDist2ViewMatchesSquareOracle(t *testing.T) {
	for _, spec := range dist2TestSpecs() {
		for seed := int64(1); seed <= 3; seed++ {
			spec.Seed = seed
			g, err := spec.Generate()
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			sq := g.Square()
			view := NewDist2View(g)
			for u := 0; u < g.NumNodes(); u++ {
				want := sq.NeighborsCopy(NodeID(u)) // sorted by construction
				got := sortedStream(view, NodeID(u))
				if len(got) != len(want) {
					t.Fatalf("%s seed %d: node %d: streamed degree %d, oracle %d", spec, seed, u, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d: node %d: streamed N²=%v, oracle %v", spec, seed, u, got, want)
					}
				}
				if d := view.Dist2Degree(NodeID(u)); d != sq.Degree(NodeID(u)) {
					t.Fatalf("%s seed %d: node %d: Dist2Degree %d, oracle %d", spec, seed, u, d, sq.Degree(NodeID(u)))
				}
			}
			if got, want := view.MaxDist2Degree(), sq.MaxDegree(); got != want {
				t.Fatalf("%s seed %d: MaxDist2Degree %d, oracle Δ(G²) %d", spec, seed, got, want)
			}
			if got, want := view.NumDist2Edges(), sq.NumEdges(); got != want {
				t.Fatalf("%s seed %d: NumDist2Edges %d, oracle m(G²) %d", spec, seed, got, want)
			}
		}
	}
}

// TestPropertyAppendDist2MatchesForEachOrder checks, for every generator
// family and three seeds, that AppendDist2 and Neighbors yield exactly
// ForEachDist2's sequence (same nodes, same order), and that AppendDist2
// keeps what buf already held.
func TestPropertyAppendDist2MatchesForEachOrder(t *testing.T) {
	for _, spec := range dist2TestSpecs() {
		for seed := int64(1); seed <= 3; seed++ {
			spec.Seed = seed
			g, err := spec.Generate()
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			view := NewDist2View(g)
			var want []NodeID
			for u := 0; u < g.NumNodes(); u++ {
				want = want[:0]
				view.ForEachDist2(NodeID(u), func(v NodeID) bool {
					want = append(want, v)
					return true
				})
				prefix := []NodeID{-1}
				if got := view.AppendDist2(prefix, NodeID(u)); !slices.Equal(got[1:], want) || got[0] != -1 {
					t.Fatalf("%s seed %d: node %d: AppendDist2 %v, ForEachDist2 %v", spec, seed, u, got, want)
				}
				if got := view.Neighbors(NodeID(u)); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d: node %d: Neighbors %v, ForEachDist2 %v", spec, seed, u, got, want)
				}
			}
		}
	}
}

// TestPropertyDist2ViewSetOperations checks IsDist2Neighbor, the streamed
// induced subgraph and Materialize against the oracle on a medium random
// graph per seed.
func TestPropertyDist2ViewSetOperations(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := GNP(50, 0.1, seed)
		sq := g.Square()
		view := NewDist2View(g)

		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if got, want := view.IsDist2Neighbor(NodeID(u), NodeID(v)), sq.HasEdge(NodeID(u), NodeID(v)); got != want {
					t.Fatalf("seed %d: IsDist2Neighbor(%d,%d)=%v, oracle %v", seed, u, v, got, want)
				}
			}
		}

		mat := view.Materialize()
		if mat.NumEdges() != sq.NumEdges() || mat.NumNodes() != sq.NumNodes() {
			t.Fatalf("seed %d: Materialize n=%d m=%d, oracle n=%d m=%d",
				seed, mat.NumNodes(), mat.NumEdges(), sq.NumNodes(), sq.NumEdges())
		}
		for u := 0; u < g.NumNodes(); u++ {
			a, b := mat.Neighbors(NodeID(u)), sq.Neighbors(NodeID(u))
			if len(a) != len(b) {
				t.Fatalf("seed %d: Materialize degree mismatch at %d", seed, u)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: Materialize neighbors mismatch at %d", seed, u)
				}
			}
		}

		keep := make([]bool, g.NumNodes())
		for v := range keep {
			keep[v] = v%3 != 0
		}
		subStream, mapStream := view.InducedSubgraph(keep)
		subOracle, mapOracle := sq.InducedSubgraph(keep)
		if subStream.NumNodes() != subOracle.NumNodes() || subStream.NumEdges() != subOracle.NumEdges() {
			t.Fatalf("seed %d: induced G²[keep] n=%d m=%d, oracle n=%d m=%d",
				seed, subStream.NumNodes(), subStream.NumEdges(), subOracle.NumNodes(), subOracle.NumEdges())
		}
		for i := range mapStream {
			if mapStream[i] != mapOracle[i] {
				t.Fatalf("seed %d: induced mapping differs at %d", seed, i)
			}
		}
		for u := 0; u < subStream.NumNodes(); u++ {
			if subStream.Degree(NodeID(u)) != subOracle.Degree(NodeID(u)) {
				t.Fatalf("seed %d: induced degree differs at %d", seed, u)
			}
		}
	}
}

// TestPropertyDistKViewMatchesPowerOracle checks the bounded-BFS streaming
// view against the Power(k) oracle.
func TestPropertyDistKViewMatchesPowerOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := GNP(40, 0.07, seed)
		for k := 1; k <= 4; k++ {
			pow := g.Power(k)
			view := NewDistKView(g, k)
			for u := 0; u < g.NumNodes(); u++ {
				var got []NodeID
				view.ForEach(NodeID(u), func(v NodeID) bool {
					got = append(got, v)
					return true
				})
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				want := pow.Neighbors(NodeID(u))
				if len(got) != len(want) {
					t.Fatalf("seed %d k=%d: node %d: streamed degree %d, oracle %d", seed, k, u, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d k=%d: node %d: streamed %v, oracle %v", seed, k, u, got, want)
					}
				}
			}
		}
	}
}

func TestDist2ViewEarlyExitAndReuse(t *testing.T) {
	g := Star(6) // center 0; every leaf sees all nodes within distance 2
	view := NewDist2View(g)
	calls := 0
	view.ForEachDist2(1, func(NodeID) bool {
		calls++
		return calls < 2 // stop after two neighbors
	})
	if calls != 2 {
		t.Fatalf("early exit visited %d neighbors, want 2", calls)
	}
	// The view must recover fully on the next stream.
	if d := view.Dist2Degree(1); d != 5 {
		t.Fatalf("Dist2Degree after early exit = %d, want 5", d)
	}
}

func TestMarkSet(t *testing.T) {
	s := NewMarkSet(4)
	if !s.Add(2) || s.Add(2) {
		t.Error("Add should report first insertion only")
	}
	if !s.Contains(2) || s.Contains(3) {
		t.Error("Contains wrong")
	}
	s.Reset()
	if s.Contains(2) {
		t.Error("Reset should empty the set")
	}
	if !s.Add(2) {
		t.Error("Add after Reset should insert")
	}
}

func TestDist2ViewEmptyAndIsolated(t *testing.T) {
	empty := NewBuilder(0).Build()
	v := NewDist2View(empty)
	if v.MaxDist2Degree() != 0 || v.NumDist2Edges() != 0 {
		t.Error("empty graph should have Δ(G²)=m(G²)=0")
	}
	iso := NewBuilder(3).Build()
	vi := NewDist2View(iso)
	for u := 0; u < 3; u++ {
		if vi.Dist2Degree(NodeID(u)) != 0 {
			t.Error("isolated nodes have empty d2-neighborhoods")
		}
	}
}
