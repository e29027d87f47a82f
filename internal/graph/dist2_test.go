package graph

import (
	"fmt"
	"math/rand"
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
				want := sq.Neighbors(NodeID(u)) // sorted by construction
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

		assertSameCSR(t, fmt.Sprintf("seed %d: Materialize", seed), view.Materialize(), sq)

		var nodes []NodeID
		for v := 0; v < g.NumNodes(); v++ {
			if v%3 != 0 {
				nodes = append(nodes, NodeID(v))
			}
		}
		subStream := view.InducedSubgraphOf(nodes, make([]int32, g.NumNodes()))
		subOracle := sq.InducedSubgraphOf(nodes, make([]int32, g.NumNodes()))
		assertSameCSR(t, fmt.Sprintf("seed %d: induced G²[nodes]", seed), subStream, subOracle)
	}
}

// assertSameCSR fails unless got and want are the same graph down to the
// representation: equal offsets, targets, edge count and maximum degree.
func assertSameCSR(t testing.TB, ctx string, got, want *Graph) {
	t.Helper()
	if got.n != want.n || got.numEdges != want.numEdges || got.maxDeg != want.maxDeg {
		t.Fatalf("%s: n=%d m=%d Δ=%d, oracle n=%d m=%d Δ=%d",
			ctx, got.n, got.numEdges, got.maxDeg, want.n, want.numEdges, want.maxDeg)
	}
	if !slices.Equal(got.off, want.off) {
		t.Fatalf("%s: offsets %v, oracle %v", ctx, got.off, want.off)
	}
	for u := 0; u < got.n; u++ {
		if a, b := got.Neighbors(NodeID(u)), want.Neighbors(NodeID(u)); !slices.Equal(a, b) {
			t.Fatalf("%s: row %d is %v, oracle %v", ctx, u, a, b)
		}
	}
}

// inducedTestMasks returns the keep masks the induced-square tests sweep
// over n nodes: all, none, one node, every third node and a random half.
func inducedTestMasks(n int, seed int64) map[string][]bool {
	masks := map[string][]bool{
		"all":         make([]bool, n),
		"none":        make([]bool, n),
		"one":         make([]bool, n),
		"every-third": make([]bool, n),
		"random":      make([]bool, n),
	}
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		masks["all"][v] = true
		masks["every-third"][v] = v%3 == 0
		masks["random"][v] = rng.Intn(2) == 0
	}
	if n > 0 {
		masks["one"][rng.Intn(n)] = true
	}
	return masks
}

// checkInducedMatchesSquare checks the streamed G²[keep] against the
// materialized oracle, the square's own induced subgraph on the kept nodes.
// The view extracts with the caller's (reused, possibly stale) index; the
// oracle with a fresh one.
func checkInducedMatchesSquare(t testing.TB, ctx string, view *Dist2View, sq *Graph, keep []bool, index []int32) {
	t.Helper()
	var nodes []NodeID
	for v, k := range keep {
		if k {
			nodes = append(nodes, NodeID(v))
		}
	}
	want := sq.InducedSubgraphOf(nodes, make([]int32, sq.NumNodes()))
	assertSameCSR(t, ctx+": InducedSubgraphOf", view.InducedSubgraphOf(nodes, index), want)
}

// TestDist2InducedSubgraphMatchesSquare checks the direct CSR emission of
// G²[keep] on every generator family, three seeds and five masks against the
// materialized square's induced subgraph: same offsets and rows, so every
// row is sorted and duplicate-free. One index is reused across all masks of
// a graph, as the partitioned coloring reuses it across parts.
func TestDist2InducedSubgraphMatchesSquare(t *testing.T) {
	for _, spec := range dist2TestSpecs() {
		for seed := int64(1); seed <= 3; seed++ {
			spec.Seed = seed
			g, err := spec.Generate()
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			sq := g.Square()
			view := NewDist2View(g)
			index := make([]int32, g.NumNodes())
			for name, keep := range inducedTestMasks(g.NumNodes(), seed) {
				checkInducedMatchesSquare(t, fmt.Sprintf("%s seed %d mask %s", spec, seed, name), view, sq, keep, index)
			}
			assertSameCSR(t, fmt.Sprintf("%s seed %d: Materialize", spec, seed), view.Materialize(), sq)
		}
	}
	// A square of more than emitChunkLen slots, so the buffered rows span
	// several full chunks.
	g := GNPWithAverageDegree(3000, 8, 1)
	sq := g.Square()
	if 2*sq.NumEdges() <= 2*emitChunkLen {
		t.Fatalf("G² has %d slots, want more than %d", 2*sq.NumEdges(), 2*emitChunkLen)
	}
	view := NewDist2View(g)
	index := make([]int32, g.NumNodes())
	for _, name := range []string{"all", "random"} {
		checkInducedMatchesSquare(t, "gnp-avg 3000/8 mask "+name, view, sq, inducedTestMasks(g.NumNodes(), 1)[name], index)
	}
}

// TestDist2InducedSubgraphOfRejectsBadNodes checks InducedSubgraphOf's
// input contract: unsorted, duplicated or out-of-range node lists and a
// wrong-length index panic instead of producing a malformed graph.
func TestDist2InducedSubgraphOfRejectsBadNodes(t *testing.T) {
	view := NewDist2View(Path(6))
	for name, tc := range map[string]struct {
		nodes []NodeID
		index []int32
	}{
		"unsorted":     {[]NodeID{2, 1}, make([]int32, 6)},
		"duplicate":    {[]NodeID{1, 1}, make([]int32, 6)},
		"out-of-range": {[]NodeID{6}, make([]int32, 6)},
		"negative":     {[]NodeID{-1}, make([]int32, 6)},
		"short-index":  {[]NodeID{0}, make([]int32, 5)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: InducedSubgraphOf did not panic", name)
				}
			}()
			view.InducedSubgraphOf(tc.nodes, tc.index)
		}()
	}
}

// FuzzDist2InducedSubgraph checks the direct CSR emission of G²[keep] on a
// small random graph (up to 48 nodes, edges read pairwise from the input)
// and a random keep mask against the square's induced-subgraph oracle, with
// an index that is reused, and so stale, on the second extraction.
func FuzzDist2InducedSubgraph(f *testing.F) {
	f.Add(uint8(9), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 5, 7, 7, 9, 9, 6, 6, 8, 8, 5}, uint64(0x2aa))
	f.Add(uint8(5), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}, uint64(0x1f))
	f.Fuzz(func(t *testing.T, nb uint8, edges []byte, mask uint64) {
		n := 1 + int(nb%48)
		b := NewBuilder(n)
		for i := 0; i+1 < len(edges) && i < 512; i += 2 {
			if u, v := NodeID(int(edges[i])%n), NodeID(int(edges[i+1])%n); u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := b.Build()
		sq := g.Square()
		view := NewDist2View(g)
		index := make([]int32, n)
		keep := make([]bool, n)
		for v := range keep {
			keep[v] = mask>>(v%64)&1 == 1
		}
		checkInducedMatchesSquare(t, "mask", view, sq, keep, index)
		for v := range keep {
			keep[v] = !keep[v]
		}
		checkInducedMatchesSquare(t, "complement", view, sq, keep, index)
	})
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
	if v.MaxDist2Degree() != 0 {
		t.Error("empty graph should have Δ(G²)=0")
	}
	iso := NewBuilder(3).Build()
	vi := NewDist2View(iso)
	for u := 0; u < 3; u++ {
		if vi.Dist2Degree(NodeID(u)) != 0 {
			t.Error("isolated nodes have empty d2-neighborhoods")
		}
	}
}
