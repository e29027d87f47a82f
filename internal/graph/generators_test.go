package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGNPDeterministicBySeed(t *testing.T) {
	a := GNP(50, 0.2, 7)
	b := GNP(50, 0.2, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(e.U, e.V) {
			t.Fatalf("same seed produced different edge sets (missing %v)", e)
		}
	}
	c := GNP(50, 0.2, 8)
	if c.NumEdges() == a.NumEdges() {
		// Edge counts may coincide; check the edge sets actually differ.
		same := true
		for _, e := range a.Edges() {
			if !c.HasEdge(e.U, e.V) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs (extremely unlikely)")
		}
	}
}

func TestGNPExtremeProbabilities(t *testing.T) {
	if g := GNP(20, 0, 1); g.NumEdges() != 0 {
		t.Errorf("GNP(p=0) has %d edges, want 0", g.NumEdges())
	}
	if g := GNP(20, 1, 1); g.NumEdges() != 20*19/2 {
		t.Errorf("GNP(p=1) has %d edges, want %d", g.NumEdges(), 20*19/2)
	}
	if g := GNP(20, -0.5, 1); g.NumEdges() != 0 {
		t.Errorf("GNP(p<0) should clamp to 0, got %d edges", g.NumEdges())
	}
	if g := GNP(20, 1.5, 1); g.NumEdges() != 20*19/2 {
		t.Errorf("GNP(p>1) should clamp to 1, got %d edges", g.NumEdges())
	}
	if g := GNP(-3, 0.5, 1); g.NumNodes() != 0 {
		t.Errorf("GNP(n<0) should clamp to empty graph, got n=%d", g.NumNodes())
	}
}

func TestGNPWithAverageDegree(t *testing.T) {
	g := GNPWithAverageDegree(400, 10, 3)
	avg := g.AverageDegree()
	if avg < 7 || avg > 13 {
		t.Errorf("average degree %.2f too far from target 10", avg)
	}
	if g := GNPWithAverageDegree(1, 10, 3); g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Error("n=1 should produce a single isolated node")
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(100, 6, 11)
	if g.MaxDegree() > 6 {
		t.Errorf("RandomRegular max degree %d exceeds requested 6", g.MaxDegree())
	}
	// The pairing model discards a few collisions; the average degree should
	// still be close to d.
	if avg := g.AverageDegree(); avg < 5 {
		t.Errorf("average degree %.2f suspiciously low for d=6", avg)
	}
	// Degenerate parameters.
	if g := RandomRegular(5, 10, 1); g.MaxDegree() > 4 {
		t.Errorf("d >= n should clamp to n-1, got Δ=%d", g.MaxDegree())
	}
	if g := RandomRegular(0, 3, 1); g.NumNodes() != 0 {
		t.Error("n=0 should produce the empty graph")
	}
	if g := RandomRegular(4, -2, 1); g.NumEdges() != 0 {
		t.Error("negative degree should clamp to 0")
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("grid nodes = %d, want 12", g.NumNodes())
	}
	// Grid edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
	if g.NumEdges() != 17 {
		t.Errorf("grid edges = %d, want 17", g.NumEdges())
	}
	if g.MaxDegree() != 4 {
		t.Errorf("grid Δ = %d, want 4", g.MaxDegree())
	}
	tor := Torus(4, 5)
	if tor.NumEdges() != 2*4*5 {
		t.Errorf("torus edges = %d, want %d", tor.NumEdges(), 2*4*5)
	}
	for u := 0; u < tor.NumNodes(); u++ {
		if tor.Degree(NodeID(u)) != 4 {
			t.Fatalf("torus node %d has degree %d, want 4", u, tor.Degree(NodeID(u)))
		}
	}
	// Small torus falls back to grid.
	small := Torus(2, 2)
	if small.NumEdges() != Grid(2, 2).NumEdges() {
		t.Error("small torus should fall back to grid")
	}
}

func TestSimpleFamilies(t *testing.T) {
	if g := Path(1); g.NumEdges() != 0 {
		t.Error("P1 should have no edges")
	}
	if g := Path(4); g.NumEdges() != 3 {
		t.Error("P4 should have 3 edges")
	}
	if g := Cycle(5); g.NumEdges() != 5 || g.MaxDegree() != 2 {
		t.Error("C5 should be 2-regular with 5 edges")
	}
	if g := Cycle(2); g.NumEdges() != 1 {
		t.Error("Cycle(2) should fall back to an edge")
	}
	if g := Star(7); g.MaxDegree() != 6 || g.NumEdges() != 6 {
		t.Error("Star(7) should have a degree-6 center")
	}
	if g := Complete(6); g.NumEdges() != 15 || g.MaxDegree() != 5 {
		t.Error("K6 should have 15 edges and Δ=5")
	}
	if g := CompleteBipartite(3, 4); g.NumEdges() != 12 || g.NumNodes() != 7 {
		t.Error("K(3,4) should have 12 edges on 7 nodes")
	}
	if g := CompleteBipartite(-1, 4); g.NumNodes() != 4 {
		t.Error("negative side should clamp to 0")
	}
}

func TestBalancedTree(t *testing.T) {
	g := BalancedTree(2, 3) // 1+2+4+8 = 15 nodes
	if g.NumNodes() != 15 {
		t.Fatalf("binary tree depth 3 has %d nodes, want 15", g.NumNodes())
	}
	if g.NumEdges() != 14 {
		t.Errorf("tree edges = %d, want n-1 = 14", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("tree should be connected")
	}
	if g := BalancedTree(0, -1); g.NumNodes() != 1 {
		t.Error("degenerate tree parameters should clamp to a single root")
	}
}

func TestDoubleStar(t *testing.T) {
	g := DoubleStar(10)
	if g.NumNodes() != 22 || g.NumEdges() != 21 {
		t.Fatalf("double star: n=%d m=%d, want n=22 m=21", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(0) != 11 || g.Degree(1) != 11 {
		t.Error("hub degrees should be leaves+1 = 11")
	}
	// In G², every leaf of hub a is adjacent to hub b.
	sq := g.Square()
	if !sq.HasEdge(2, 1) {
		t.Error("leaf of a should be a d2-neighbor of b")
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(4, 6, 0)
	if g.NumNodes() != 24 {
		t.Fatalf("clique chain nodes = %d, want 24", g.NumNodes())
	}
	wantEdges := 4*(6*5/2) + 3
	if g.NumEdges() != wantEdges {
		t.Errorf("clique chain edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if !g.IsConnected() {
		t.Error("clique chain should be connected")
	}
	if g := CliqueChain(0, 5, 0); g.NumNodes() != 0 {
		t.Error("count=0 should be empty")
	}
}

func TestUnitDisk(t *testing.T) {
	g := UnitDisk(100, 0.2, 5)
	if g.NumNodes() != 100 {
		t.Fatalf("unit disk nodes = %d, want 100", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Error("unit disk with radius 0.2 should have some edges")
	}
	if g := UnitDisk(100, 0, 5); g.NumEdges() != 0 {
		t.Error("radius 0 should produce no edges")
	}
	g2, xs, ys := UnitDiskPositions(50, 0.3, 5)
	if len(xs) != 50 || len(ys) != 50 {
		t.Error("positions should have length n")
	}
	if g2.NumNodes() != 50 {
		t.Error("UnitDiskPositions node count mismatch")
	}
}

func TestTaskResource(t *testing.T) {
	g := TaskResource(20, 10, 3, 9)
	if g.NumNodes() != 30 {
		t.Fatalf("task/resource nodes = %d, want 30", g.NumNodes())
	}
	for tsk := 0; tsk < 20; tsk++ {
		if g.Degree(NodeID(tsk)) != 3 {
			t.Errorf("task %d degree = %d, want 3", tsk, g.Degree(NodeID(tsk)))
		}
	}
	// Tasks form an independent set in G: no task-task edges.
	for tsk := 0; tsk < 20; tsk++ {
		for _, v := range g.Neighbors(NodeID(tsk)) {
			if int(v) < 20 {
				t.Fatalf("task %d adjacent to task %d", tsk, v)
			}
		}
	}
	if g := TaskResource(5, 2, 10, 1); g.MaxDegree() > 5 {
		t.Error("perTask should clamp to the number of resources")
	}
	// Large instances stay linear: 2¹⁷ tasks over 2¹⁷ resources would cost
	// about 1.7·10¹⁰ swaps if every task shuffled a fresh permutation.
	const big = 1 << 17
	g = TaskResource(big, big, 2, 3)
	if g.NumNodes() != 2*big || g.NumEdges() != 2*big {
		t.Fatalf("large task/resource: n=%d m=%d, want %d and %d", g.NumNodes(), g.NumEdges(), 2*big, 2*big)
	}
	for tsk := 0; tsk < big; tsk++ {
		nb := g.Neighbors(NodeID(tsk))
		if len(nb) != 2 || int(nb[0]) < big || int(nb[1]) < big {
			t.Fatalf("large task/resource: task %d neighbors %v, want 2 distinct resources", tsk, nb)
		}
	}
}

func TestGeneratorSpec(t *testing.T) {
	specs := []GeneratorSpec{
		{Kind: "gnp", N: 30, P: 0.1, Seed: 1},
		{Kind: "gnp-avg", N: 30, P: 4, Seed: 1},
		{Kind: "regular", N: 30, Degree: 4, Seed: 1},
		{Kind: "grid", N: 5, M: 6},
		{Kind: "torus", N: 5, M: 6},
		{Kind: "tree", N: 3, Degree: 2},
		{Kind: "cliquechain", N: 3, M: 5},
		{Kind: "unitdisk", N: 30, P: 0.3, Seed: 1},
		{Kind: "taskresource", N: 10, M: 5, Degree: 2, Seed: 1},
		{Kind: "complete", N: 6},
		{Kind: "cycle", N: 6},
		{Kind: "path", N: 6},
		{Kind: "star", N: 6},
		{Kind: "doublestar", Degree: 4},
	}
	for _, s := range specs {
		g, err := s.Generate()
		if err != nil {
			t.Errorf("Generate(%s): %v", s.Kind, err)
			continue
		}
		if g == nil {
			t.Errorf("Generate(%s) returned nil graph", s.Kind)
		}
	}
	if _, err := (GeneratorSpec{Kind: "bogus"}).Generate(); err == nil {
		t.Error("unknown generator kind should error")
	}
}

// TestGeneratorSpecSize checks Size against the generated graphs: the node
// count always exactly, the edge count exactly for the deterministic kinds,
// ba and taskresource, as an upper bound for regular, and as an expectation
// (mean over seeds within 5%) for gnp, gnp-avg and unitdisk — including the
// parameter clamps each generator applies.
func TestGeneratorSpecSize(t *testing.T) {
	exact := []GeneratorSpec{
		{Kind: "ba", N: 300, Degree: 3}, {Kind: "ba", N: 1}, {Kind: "ba", N: 5, Degree: 9}, {Kind: "ba", N: 6, Degree: -2},
		{Kind: "grid", N: 5, M: 6}, {Kind: "grid", N: 0, M: 6}, {Kind: "grid", N: -3, M: 4}, {Kind: "grid", N: 1, M: 1},
		{Kind: "torus", N: 5, M: 6}, {Kind: "torus", N: 2, M: 6}, {Kind: "torus", N: 3, M: 3},
		{Kind: "tree", N: 3, Degree: 2}, {Kind: "tree", N: 4, Degree: 1}, {Kind: "tree", N: 0, Degree: 5}, {Kind: "tree", N: -1, Degree: 0},
		{Kind: "cliquechain", N: 3, M: 5}, {Kind: "cliquechain", N: 0, M: 5}, {Kind: "cliquechain", N: 4, M: 0},
		{Kind: "taskresource", N: 10, M: 5, Degree: 2}, {Kind: "taskresource", N: 10, M: 3, Degree: 7}, {Kind: "taskresource", N: 4, M: 5, Degree: -1},
		{Kind: "complete", N: 6}, {Kind: "complete", N: 1}, {Kind: "complete", N: -4},
		{Kind: "cycle", N: 6}, {Kind: "cycle", N: 2}, {Kind: "cycle", N: 0},
		{Kind: "path", N: 6}, {Kind: "path", N: 0}, {Kind: "star", N: 6}, {Kind: "star", N: 1},
		{Kind: "doublestar", Degree: 4}, {Kind: "doublestar", Degree: -1},
		{Kind: "petersen"}, {Kind: "hoffman-singleton"},
		{Kind: "gnp", N: 30, P: 1}, {Kind: "gnp", N: 30, P: 0}, {Kind: "gnp", N: 1, P: 0.5}, {Kind: "gnp-avg", N: 1, P: 4},
		{Kind: "unitdisk", N: 40, P: 0}, {Kind: "unitdisk", N: 0, P: 0.5}, {Kind: "regular", N: 0, Degree: 3},
	}
	for _, s := range exact {
		g, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		nodes, edges, err := s.Size()
		if err != nil || nodes != float64(g.NumNodes()) || edges != float64(g.NumEdges()) {
			t.Errorf("%s: Size = %v nodes, %v edges, %v; generated %d, %d", s, nodes, edges, err, g.NumNodes(), g.NumEdges())
		}
	}
	for _, s := range []GeneratorSpec{{Kind: "regular", N: 200, Degree: 6}, {Kind: "regular", N: 31, Degree: 3}, {Kind: "regular", N: 5, Degree: 9}} {
		g, _ := s.Generate()
		nodes, edges, _ := s.Size()
		// Self-loops and duplicate pairs are rare once n ≫ d.
		if nodes != float64(g.NumNodes()) || float64(g.NumEdges()) > edges || (nodes >= 30 && float64(g.NumEdges()) < 0.9*edges) {
			t.Errorf("%s: Size = %v nodes, %v edges; generated %d, %d", s, nodes, edges, g.NumNodes(), g.NumEdges())
		}
	}
	for _, s := range []GeneratorSpec{
		{Kind: "gnp", N: 400, P: 0.02}, {Kind: "gnp-avg", N: 400, P: 6}, {Kind: "gnp-avg", N: 30, P: 90},
		{Kind: "unitdisk", N: 400, P: 0.08}, {Kind: "unitdisk", N: 200, P: 0.7}, {Kind: "unitdisk", N: 100, P: 3},
	} {
		nodes, edges, _ := s.Size()
		const seeds = 20
		var sum float64
		for seed := int64(1); seed <= seeds; seed++ {
			s.Seed = seed
			g, _ := s.Generate()
			if nodes != float64(g.NumNodes()) {
				t.Fatalf("%s: Size = %v nodes, generated %d", s, nodes, g.NumNodes())
			}
			sum += float64(g.NumEdges())
		}
		if mean := sum / seeds; math.Abs(mean-edges) > 0.05*edges {
			t.Errorf("%s: Size = %v expected edges, mean over %d seeds %v", s, edges, seeds, mean)
		}
	}
	// Sizes past every int range stay finite or +Inf, never wrap negative.
	for _, s := range []GeneratorSpec{
		{Kind: "complete", N: math.MaxInt}, {Kind: "grid", N: math.MaxInt, M: math.MaxInt},
		{Kind: "tree", N: math.MaxInt, Degree: 2}, {Kind: "cliquechain", N: math.MaxInt, M: math.MaxInt},
	} {
		if nodes, edges, _ := s.Size(); nodes < 1e18 || edges < 1e18 {
			t.Errorf("%s: Size = %v nodes, %v edges, want both huge", s, nodes, edges)
		}
	}
	if _, _, err := (GeneratorSpec{Kind: "bogus"}).Size(); err == nil {
		t.Error("unknown generator kind should error")
	}
}

func TestPropertyGeneratorsSimple(t *testing.T) {
	// All generators must produce simple graphs: no self-loops and symmetric
	// adjacency (already enforced by Builder, this guards against regressions
	// if a generator bypasses it).
	f := func(seed int64) bool {
		gs := []*Graph{
			GNP(25, 0.2, seed),
			RandomRegular(25, 4, seed),
			UnitDisk(25, 0.25, seed),
			TaskResource(10, 8, 3, seed),
			CliqueChain(3, 5, seed),
		}
		for _, g := range gs {
			for u := 0; u < g.NumNodes(); u++ {
				for _, v := range g.Neighbors(NodeID(u)) {
					if v == NodeID(u) || !g.HasEdge(v, NodeID(u)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBFSAndComponents(t *testing.T) {
	g := Path(6)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("BFS dist[%d] = %d, want %d", i, d, i)
		}
	}
	lim := g.BFSLimited(0, 2)
	if lim[3] != -1 || lim[2] != 2 {
		t.Errorf("BFSLimited(0,2) = %v, want nodes beyond distance 2 unreachable", lim)
	}
	if d := g.Dist(0, 5); d != 5 {
		t.Errorf("Dist(0,5) = %d, want 5", d)
	}

	// Two components.
	g2 := MustFromEdges(5, []Edge{{0, 1}, {2, 3}})
	comp, k := g2.ConnectedComponents()
	if k != 3 {
		t.Errorf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Errorf("component labels wrong: %v", comp)
	}
	if g2.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if g2.Diameter() != -1 {
		t.Error("diameter of disconnected graph should be -1")
	}
	if d := Cycle(6).Diameter(); d != 3 {
		t.Errorf("diameter of C6 = %d, want 3", d)
	}
	if d := NewBuilder(1).Build().Diameter(); d != 0 {
		t.Errorf("diameter of a single node = %d, want 0", d)
	}
	if e := NewBuilder(0).Build(); !e.IsConnected() {
		t.Error("empty graph should be considered connected")
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := Path(4)
	dist := g.BFS(NodeID(10))
	for _, d := range dist {
		if d != -1 {
			t.Error("out-of-range source should leave all nodes unreachable")
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := Star(10)
	st := ComputeStats(g)
	if st.Nodes != 10 || st.Edges != 9 || st.MaxDegree != 9 || st.MinDegree != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxDist2Deg != 9 {
		t.Errorf("MaxDist2Deg = %d, want 9 (star squares to a clique)", st.MaxDist2Deg)
	}
	if st.Components != 1 {
		t.Errorf("components = %d, want 1", st.Components)
	}
	if st.SquaredBound != 81 {
		t.Errorf("Δ² = %d, want 81", st.SquaredBound)
	}
	if st.String() == "" {
		t.Error("Stats.String should be non-empty")
	}
	empty := ComputeStats(NewBuilder(0).Build())
	if empty.Nodes != 0 {
		t.Error("empty stats should have 0 nodes")
	}
}

func TestGNPTinyProbabilityDoesNotOverflow(t *testing.T) {
	// Regression: for p small enough that a geometric skip exceeds MaxInt64,
	// the float→int conversion used to wrap negative and emit ~n²/2 edges.
	g := GNP(1000, 1e-300, 1)
	if g.NumEdges() != 0 {
		t.Fatalf("GNP(1000, 1e-300) produced %d edges, want 0", g.NumEdges())
	}
	g = GNP(1000, 4e-18, 2)
	if g.NumEdges() != 0 {
		t.Fatalf("GNP(1000, 4e-18) produced %d edges, want 0", g.NumEdges())
	}
}

func TestBarabasiAlbertDegreeInvariants(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{200, 1}, {200, 3}, {3000, 2}, {3000, 5}} {
		g, eff := BarabasiAlbertEffective(tc.n, tc.m, 42)
		if eff != tc.m {
			t.Fatalf("BA(%d,%d): effective m = %d, want %d", tc.n, tc.m, eff, tc.m)
		}
		// Exact edge count: seed clique on m+1 nodes plus m distinct
		// attachments per later node — the generator never drops an edge.
		wantEdges := tc.m*(tc.m+1)/2 + (tc.n-tc.m-1)*tc.m
		if g.NumEdges() != wantEdges {
			t.Errorf("BA(%d,%d): %d edges, want %d", tc.n, tc.m, g.NumEdges(), wantEdges)
		}
		degSum := 0
		minDeg := tc.n
		for v := 0; v < tc.n; v++ {
			d := g.Degree(NodeID(v))
			degSum += d
			if d < minDeg {
				minDeg = d
			}
		}
		if degSum != 2*wantEdges {
			t.Errorf("BA(%d,%d): degree sum %d, want %d", tc.n, tc.m, degSum, 2*wantEdges)
		}
		if minDeg < tc.m {
			t.Errorf("BA(%d,%d): min degree %d < m", tc.n, tc.m, minDeg)
		}
		// Preferential attachment concentrates degree on hubs: the maximum
		// degree must sit far above the m..2m band a uniform-attachment
		// graph of the same density would produce.
		if g.MaxDegree() < 3*tc.m {
			t.Errorf("BA(%d,%d): max degree %d shows no heavy tail (want >= %d)", tc.n, tc.m, g.MaxDegree(), 3*tc.m)
		}
		if !g.IsConnected() {
			t.Errorf("BA(%d,%d): not connected", tc.n, tc.m)
		}
	}
}

func TestBarabasiAlbertDeterministicBySeed(t *testing.T) {
	a := BarabasiAlbert(500, 3, 7)
	b := BarabasiAlbert(500, 3, 7)
	for v := 0; v < 500; v++ {
		if !slicesEqualNodeIDs(a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))) {
			t.Fatalf("BA(500,3,7): node %d adjacency differs between identical seeds", v)
		}
	}
	c := BarabasiAlbert(500, 3, 8)
	same := true
	for v := 0; v < 500 && same; v++ {
		same = slicesEqualNodeIDs(a.Neighbors(NodeID(v)), c.Neighbors(NodeID(v)))
	}
	if same {
		t.Fatal("BA(500,3): seeds 7 and 8 produced identical graphs")
	}
}

func slicesEqualNodeIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBarabasiAlbertEffectiveClamps(t *testing.T) {
	if g, eff := BarabasiAlbertEffective(50, 0, 1); eff != 1 || g.NumEdges() != 1+48 {
		t.Errorf("m=0 should clamp to 1: eff=%d edges=%d", eff, g.NumEdges())
	}
	if g, eff := BarabasiAlbertEffective(6, 10, 1); eff != 5 || g.NumEdges() != 15 {
		t.Errorf("m >= n should clamp to n-1 (complete graph): eff=%d edges=%d", eff, g.NumEdges())
	}
	if g, eff := BarabasiAlbertEffective(1, 3, 1); eff != 0 || g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Errorf("n=1: eff=%d nodes=%d edges=%d", eff, g.NumNodes(), g.NumEdges())
	}
	if g, eff := BarabasiAlbertEffective(-4, 3, 1); eff != 0 || g.NumNodes() != 0 {
		t.Errorf("n<0: eff=%d nodes=%d", eff, g.NumNodes())
	}
}

func TestGeneratorSpecBA(t *testing.T) {
	g, err := GeneratorSpec{Kind: "ba", N: 300, Degree: 2, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	direct := BarabasiAlbert(300, 2, 5)
	if g.NumNodes() != direct.NumNodes() || g.NumEdges() != direct.NumEdges() {
		t.Fatalf("spec BA (%d nodes, %d edges) != direct (%d, %d)",
			g.NumNodes(), g.NumEdges(), direct.NumNodes(), direct.NumEdges())
	}
}
