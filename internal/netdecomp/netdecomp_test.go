package netdecomp

import (
	"slices"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
)

func TestComputeCoversAllNodes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":   graph.GNP(80, 0.05, 1),
		"grid":  graph.Grid(9, 9),
		"path":  graph.Path(50),
		"star":  graph.Star(20),
		"chain": graph.CliqueChain(5, 5, 0),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2} {
			d := Compute(g, k)
			if ok, why := d.Validate(g, k); !ok {
				t.Errorf("%s k=%d: invalid decomposition: %s", name, k, why)
			}
			total := 0
			for _, c := range d.Clusters {
				total += len(c)
			}
			if total != g.NumNodes() {
				t.Errorf("%s k=%d: clusters cover %d of %d nodes", name, k, total, g.NumNodes())
			}
			if d.NumColors < 1 && g.NumNodes() > 0 {
				t.Errorf("%s k=%d: no cluster colors", name, k)
			}
			if d.Rounds <= 0 {
				t.Errorf("%s k=%d: non-positive round charge", name, k)
			}
		}
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	d := Compute(graph.NewBuilder(0).Build(), 2)
	if len(d.Clusters) != 0 {
		t.Error("empty graph should have no clusters")
	}
	d = Compute(graph.NewBuilder(1).Build(), 2)
	if len(d.Clusters) != 1 || d.NumColors != 1 {
		t.Errorf("single node: clusters=%d colors=%d", len(d.Clusters), d.NumColors)
	}
	// k < 1 clamps to 1.
	d = Compute(graph.Path(5), 0)
	if ok, why := d.Validate(graph.Path(5), 1); !ok {
		t.Errorf("k=0 clamp: %s", why)
	}
}

func TestRadiusBounded(t *testing.T) {
	g := graph.GNP(200, 0.03, 3)
	d := Compute(g, 2)
	// Weak radius is at most k·log₂ n by construction.
	bound := 2 * 8 // log2(200) ≈ 7.6
	if d.MaxRadius > bound {
		t.Errorf("max radius %d exceeds k·log₂ n = %d", d.MaxRadius, bound)
	}
}

func TestCliqueIsOneCluster(t *testing.T) {
	g := graph.Complete(16)
	d := Compute(g, 1)
	if len(d.Clusters) != 1 {
		t.Errorf("a clique should form a single cluster, got %d", len(d.Clusters))
	}
	if d.NumColors != 1 {
		t.Errorf("single cluster should use one color, got %d", d.NumColors)
	}
}

func TestPropertyValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(50, 0.08, seed)
		d := Compute(g, 2)
		ok, _ := d.Validate(g, 2)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := graph.Path(6)
	d := Compute(g, 2)
	if len(d.Clusters) < 2 {
		t.Skip("decomposition produced one cluster; corruption test needs two")
	}
	// Force two clusters that are within distance 2 to share a color.
	d.ColorOf[0] = 0
	d.ColorOf[1] = 0
	if ok, _ := d.Validate(g, 2); ok {
		t.Error("Validate should detect same-colored nearby clusters")
	}
	d2 := Compute(g, 2)
	d2.ClusterOf = d2.ClusterOf[:len(d2.ClusterOf)-1]
	if ok, _ := d2.Validate(g, 2); ok {
		t.Error("Validate should detect length mismatch")
	}
}

// oracleColorClusters is the bounded-BFS cluster coloring the streamed one
// replaced: one BFSLimited distance array per node gives the cluster
// adjacency, which is then colored greedily in cluster order.
func oracleColorClusters(g *graph.Graph, clusterOf []int, numClusters, k int) ([]int, int) {
	adj := make([]map[int]bool, numClusters)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for v := 0; v < g.NumNodes(); v++ {
		cv := clusterOf[v]
		for u, du := range g.BFSLimited(graph.NodeID(v), k) {
			if du < 0 || du > k || clusterOf[u] == cv {
				continue
			}
			adj[cv][clusterOf[u]] = true
			adj[clusterOf[u]][cv] = true
		}
	}
	colorOf := make([]int, numClusters)
	used := 0
	for c := 0; c < numClusters; c++ {
		taken := map[int]bool{}
		for nbr := range adj[c] {
			if nbr < c {
				taken[colorOf[nbr]] = true
			}
		}
		col := 0
		for taken[col] {
			col++
		}
		colorOf[c] = col
		used = max(used, col+1)
	}
	return colorOf, used
}

// oracleValid is Validate's color check over BFSLimited distance arrays.
func oracleValid(g *graph.Graph, d *Decomposition, k int) bool {
	for v := 0; v < g.NumNodes(); v++ {
		for u, du := range g.BFSLimited(graph.NodeID(v), k) {
			cv, cu := d.ClusterOf[v], d.ClusterOf[u]
			if du >= 1 && du <= k && cv != cu && d.ColorOf[cv] == d.ColorOf[cu] {
				return false
			}
		}
	}
	return true
}

// TestStreamedBallsMatchBFSOracle pins the streamed k-hop balls of
// colorClusters and Validate to the per-node BFSLimited oracle: the same
// cluster colors, the same color count and the same Validate verdict, on
// valid decompositions and on ones with two clusters' colors merged.
func TestStreamedBallsMatchBFSOracle(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp-avg":     graph.GNPWithAverageDegree(300, 6, 2),
		"unitdisk":    graph.UnitDisk(200, 0.12, 3),
		"grid":        graph.Grid(12, 12),
		"cliquechain": graph.CliqueChain(6, 5, 0),
		"star":        graph.Star(30),
		"regular":     graph.RandomRegular(150, 4, 5),
		"tree":        graph.BalancedTree(3, 4),
		"path":        graph.Path(40),
	}
	for name, g := range graphs {
		for k := 1; k <= 3; k++ {
			d := Compute(g, k)
			colorOf, numColors := oracleColorClusters(g, d.ClusterOf, len(d.Clusters), k)
			if d.NumColors != numColors || !slices.Equal(d.ColorOf, colorOf) {
				t.Fatalf("%s k=%d: streamed coloring (%d colors) differs from the BFS oracle (%d colors)",
					name, k, d.NumColors, numColors)
			}
			if ok, why := d.Validate(g, k); !ok {
				t.Fatalf("%s k=%d: %s", name, k, why)
			}
			if len(d.Clusters) < 2 {
				continue
			}
			for c := 1; c < len(d.Clusters); c++ {
				bad := d
				bad.ColorOf = slices.Clone(d.ColorOf)
				bad.ColorOf[c] = bad.ColorOf[0]
				if ok, _ := bad.Validate(g, k); ok != oracleValid(g, &bad, k) {
					t.Fatalf("%s k=%d: Validate = %v with clusters 0 and %d merged, oracle disagrees", name, k, ok, c)
				}
			}
		}
	}
}

// BenchmarkCompute measures the decomposition of G² on a sparse random
// graph at n = 10⁴.
func BenchmarkCompute(b *testing.B) {
	g := graph.GNPWithAverageDegree(10000, 10, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(g, 2)
	}
}
