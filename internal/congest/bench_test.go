package congest

import (
	"fmt"
	"runtime"
	"testing"

	"d2color/internal/graph"
)

// benchGraph is the workload the delivery benchmarks run on: a 10k-node
// random graph with average degree 12, the scale the experiment sweeps target.
func benchGraph() *graph.Graph {
	return graph.GNPWithAverageDegree(10_000, 12, 42)
}

// skewGraphN is the star-heavy stress topology for the edge-balanced shard
// plan: a ring over all n nodes (so no node is isolated) plus `hubs` hub
// nodes at the front of the ID space, each wired to ~spokes pseudo-random
// non-hub targets. The hubs concentrate most of the graph's edge slots on a
// tiny prefix of the node range — contiguous equal-node chunking hands that
// prefix to one shard, edge-balanced ownership splits it.
func skewGraphN(n, hubs, spokes int) *graph.Graph {
	edges := make([]graph.Edge, 0, n+hubs*spokes)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(v), V: graph.NodeID((v + 1) % n)})
	}
	x := uint64(0x9E3779B97F4A7C15) // deterministic xorshift, no rng dependency
	for h := 0; h < hubs; h++ {
		for i := 0; i < spokes; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t := hubs + int(x%uint64(n-hubs)) // always a non-hub: no self-loops
			edges = append(edges, graph.Edge{U: graph.NodeID(h), V: graph.NodeID(t)})
		}
	}
	return graph.MustFromEdges(n, edges) // duplicates collapse in the builder
}

// skewGraph is the benchmark-scale instance: 10k nodes, 16 hubs × ~600
// spokes, so roughly half of all edge slots belong to 0.16% of the nodes.
func skewGraph() *graph.Graph {
	return skewGraphN(10_000, 16, 600)
}

// benchWorkerCounts is the worker axis of the engine benchmarks: the inline
// engine, plus a GOMAXPROCS-sized team when the machine has more than one
// core to give it.
func benchWorkerCounts() []int {
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		return []int{1, procs}
	}
	return []int{1}
}

// BenchmarkDeliver measures one full simulator round (step + delivery) of an
// all-neighbours broadcast: a direct probe of the engines' per-round
// overhead — inbox assembly, bandwidth accounting, context management, and
// (workers > 1) the worker team's wake/barrier/wait cycle. Two topologies:
// the uniform 10k-node random graph, and the star-heavy skew graph that
// punishes node-count chunking (the per-worker load only balances if shard
// ownership follows edge slots). The sub-benchmark names carry the worker
// count — 1 (inline) and GOMAXPROCS when that is larger — so BENCH_*.json
// snapshots from differently-sized runners stay interpretable.
func BenchmarkDeliver(b *testing.B) {
	topos := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"gnp", benchGraph},
		{"skew", skewGraph},
	}
	for _, topo := range topos {
		g := topo.build()
		run := func(b *testing.B, workers int) {
			net := New(g, workers)
			defer net.Close()
			installAll(net, func(v graph.NodeID) Process {
				return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
					ctx.Broadcast(1, uint64(round&1))
				})
			})
			// Warm one round so one-time buffer growth (and the team spawn)
			// is outside the measured loop.
			net.RunRounds(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.RunRounds(1)
			}
		}
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("topo=%s/workers=%d", topo.name, workers), func(b *testing.B) {
				run(b, workers)
			})
		}
	}
}

// BenchmarkDeliverSparse measures a round where only a small fraction of the
// nodes speak, the regime of the later phases of the coloring algorithms
// (most nodes are already colored and quiet).
func BenchmarkDeliverSparse(b *testing.B) {
	g := benchGraph()
	net := New(g, 1)
	installAll(net, func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			if v%100 == 0 {
				ctx.Broadcast(1, uint64(round&1))
			}
		})
	})
	net.RunRounds(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunRounds(1)
	}
}

// BenchmarkEdgeIndex measures building the CSR edge index for graphs of
// growing size (paid once per topology, amortized across every round).
func BenchmarkEdgeIndex(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := graph.GNPWithAverageDegree(n, 12, 7)
				_ = g.EdgeIndex()
			}
		})
	}
}

// BenchmarkPayloadRound is the payload-allocation probe: every node
// broadcasts a payload word too large for any runtime small-value cache, so
// any residual boxing or per-message heap traffic would show up as allocs/op.
// A warmed-up round must report 0 allocs/op — the message plane carries
// payloads inline as uint64 words.
func BenchmarkPayloadRound(b *testing.B) {
	g := benchGraph()
	net := New(g, 1)
	installAll(net, func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			sum := uint64(0)
			for i := range inbox {
				sum += inbox[i].Word
			}
			ctx.Broadcast(2, sum|0x1_0000_0000) // > 32 bits: never cached
		})
	})
	net.RunRounds(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunRounds(1)
	}
}
