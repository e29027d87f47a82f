package graph

import (
	"fmt"
	"testing"
)

// The acceptance workload of the streaming-substrate PR: G(n=20k, avgdeg=32),
// whose square has ~Δ²≈10³-degree neighborhoods. BenchmarkDist2View streams
// every distance-2 neighborhood (the dominant substrate operation of the
// coloring layers) while BenchmarkSquareMaterialize pays for the standing G².
// Compare the allocated-bytes columns: the view stays at O(n) regardless of
// |E(G²)|.
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return GNPWithAverageDegree(20000, 32, 7)
}

func BenchmarkDist2View(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := NewDist2View(g)
		total := 0
		for u := 0; u < g.NumNodes(); u++ {
			view.ForEachDist2(NodeID(u), func(NodeID) bool { total++; return true })
		}
		b.ReportMetric(float64(total/2), "d2-edges")
	}
}

func BenchmarkSquareMaterialize(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sq := NewDist2View(g).Materialize()
		b.ReportMetric(float64(sq.NumEdges()), "d2-edges")
	}
}

// mapBuilderReference is the pre-refactor Builder (per-node hash sets), kept
// here as the benchmark baseline for the append-then-sort-dedupe builder.
type mapBuilderReference struct {
	n   int
	adj []map[NodeID]struct{}
}

func newMapBuilderReference(n int) *mapBuilderReference {
	adj := make([]map[NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[NodeID]struct{})
	}
	return &mapBuilderReference{n: n, adj: adj}
}

func (b *mapBuilderReference) addEdge(u, v NodeID) {
	if _, ok := b.adj[u][v]; ok {
		return
	}
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
}

func (b *mapBuilderReference) build() *Graph {
	gb := NewBuilder(b.n)
	for u := range b.adj {
		for v := range b.adj[u] {
			if NodeID(u) < v {
				_ = gb.AddEdge(NodeID(u), v)
			}
		}
	}
	return gb.Build()
}

func builderBenchEdges() []Edge {
	g := GNPWithAverageDegree(20000, 32, 7)
	return g.Edges()
}

func BenchmarkBuilderSortDedupe(b *testing.B) {
	edges := builderBenchEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(20000)
		bl.Grow(len(edges))
		for _, e := range edges {
			_ = bl.AddEdge(e.U, e.V)
		}
		g := bl.Build()
		if g.NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

func BenchmarkBuilderMapReference(b *testing.B) {
	edges := builderBenchEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := newMapBuilderReference(20000)
		for _, e := range edges {
			bl.addEdge(e.U, e.V)
		}
		g := bl.build()
		if g.NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

// BenchmarkDist2ViewSizes tracks the view's per-scale cost so harness sweeps
// can be sized from benchmark output alone.
func BenchmarkDist2ViewSizes(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := GNPWithAverageDegree(n, 16, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view := NewDist2View(g)
				maxDeg := view.MaxDist2Degree()
				_ = maxDeg
			}
		})
	}
}

// BenchmarkDist2InducedSubgraph times the direct CSR emission of G²[Vᵢ] on
// the perfbench solve shape (gnp-avg, n = 4000, average degree 10): "all"
// keeps every node, the one-part case of the polylog solve, and "half" keeps
// every other node.
func BenchmarkDist2InducedSubgraph(b *testing.B) {
	g := GNPWithAverageDegree(4000, 10, 1)
	for _, bc := range []struct {
		name string
		step int
	}{{"all", 1}, {"half", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			var nodes []NodeID
			for v := 0; v < g.NumNodes(); v += bc.step {
				nodes = append(nodes, NodeID(v))
			}
			view := NewDist2View(g)
			index := make([]int32, g.NumNodes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.InducedSubgraphOf(nodes, index)
			}
		})
	}
}
