package congest

import (
	"errors"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
)

func TestFloodMaxElectsGlobalLeader(t *testing.T) {
	g := graph.Grid(6, 7)
	res, err := FloodMax(g, Config{Seed: 3, IDs: IDSparseRandom}, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	want := res.LeaderUID[0]
	for v, got := range res.LeaderUID {
		if got != want {
			t.Fatalf("node %d elected %d, node 0 elected %d", v, got, want)
		}
	}
	if res.Metrics.Rounds == 0 || res.Metrics.MessagesSent == 0 {
		t.Error("flooding should cost rounds and messages")
	}
}

func TestFloodMaxPerComponent(t *testing.T) {
	// Two disjoint paths: each component elects its own maximum.
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
	res, err := FloodMax(g, Config{Seed: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeaderUID[0] != 2 || res.LeaderUID[1] != 2 || res.LeaderUID[2] != 2 {
		t.Errorf("first component leaders: %v", res.LeaderUID[:3])
	}
	if res.LeaderUID[3] != 5 || res.LeaderUID[5] != 5 {
		t.Errorf("second component leaders: %v", res.LeaderUID[3:])
	}
}

func TestBFSTreeMatchesCentralBFS(t *testing.T) {
	g := graph.GNP(60, 0.08, 4)
	root := graph.NodeID(0)
	res, err := BFSTree(g, Config{Seed: 2}, root, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	want := g.BFS(root)
	for v := 0; v < g.NumNodes(); v++ {
		if res.Depth[v] != want[v] {
			t.Fatalf("node %d: distributed depth %d, BFS distance %d", v, res.Depth[v], want[v])
		}
		if want[v] > 0 {
			p := res.Parent[v]
			if p < 0 || !g.HasEdge(graph.NodeID(v), p) || want[p] != want[v]-1 {
				t.Fatalf("node %d has invalid parent %d", v, p)
			}
		}
	}
	if res.Parent[root] != root || res.Depth[root] != 0 {
		t.Error("root should be its own parent at depth 0")
	}
}

func TestBFSTreeRootValidation(t *testing.T) {
	if _, err := BFSTree(graph.Path(3), Config{}, 7, 3); !errors.Is(err, ErrProtocol) {
		t.Errorf("out-of-range root: %v", err)
	}
}

func TestConvergecastSum(t *testing.T) {
	g := graph.BalancedTree(3, 3)
	root := graph.NodeID(0)
	tree, err := BFSTree(g, Config{Seed: 5}, root, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, g.NumNodes())
	var want int64
	for v := range values {
		values[v] = int64(v + 1)
		want += int64(v + 1)
	}
	got, metrics, err := ConvergecastSum(g, Config{Seed: 5}, tree, values)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("convergecast sum = %d, want %d", got, want)
	}
	if metrics.MessagesSent != g.NumNodes()-1 {
		t.Errorf("convergecast should send exactly one message per non-root node, sent %d", metrics.MessagesSent)
	}
}

func TestConvergecastInputValidation(t *testing.T) {
	g := graph.Path(4)
	tree, err := BFSTree(g, Config{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConvergecastSum(g, Config{}, tree, []int64{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Errorf("length mismatch: %v", err)
	}
}

func TestConvergecastIgnoresUnreachableNodes(t *testing.T) {
	// Node 3 is isolated: its value must not reach the root.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	tree, err := BFSTree(g, Config{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ConvergecastSum(g, Config{}, tree, []int64{1, 10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got != 111 {
		t.Errorf("sum = %d, want 111 (isolated node excluded)", got)
	}
}

func TestPropertyProtocolsAgreeAcrossWorkerCounts(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(40, 0.1, int64(seed%8))
		seq, err := BFSTree(g, Config{Seed: seed, Workers: 1}, 0, g.NumNodes())
		if err != nil {
			return false
		}
		par, err := BFSTree(g, Config{Seed: seed, Workers: 3}, 0, g.NumNodes())
		if err != nil {
			return false
		}
		for v := range seq.Depth {
			if seq.Depth[v] != par.Depth[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
