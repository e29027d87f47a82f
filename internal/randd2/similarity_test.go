package randd2

import (
	"fmt"
	"slices"
	"testing"

	"d2color/internal/graph"
	"d2color/internal/rng"
)

func buildSim(t *testing.T, g *graph.Graph, exact bool) *similarity {
	t.Helper()
	p := Default()
	p.ExactSimilarity = exact
	return buildSimilarity(g, graph.NewDist2View(g), g.MaxDegree(), p, 99)
}

func TestSimilaritySymmetricAndSubsetOfSquare(t *testing.T) {
	g := graph.CliqueChain(5, 6, 0)
	sq := g.Square() // materialized oracle, test-only
	for _, exact := range []bool{true, false} {
		sim := buildSim(t, g, exact)
		for v := 0; v < g.NumNodes(); v++ {
			for _, u := range sim.hNeighbors(graph.NodeID(v)) {
				if !sim.isHNeighbor(u, graph.NodeID(v)) {
					t.Fatalf("exact=%v: H not symmetric at (%d,%d)", exact, v, u)
				}
				if !sq.HasEdge(graph.NodeID(v), u) {
					t.Fatalf("exact=%v: H edge (%d,%d) not a d2 pair", exact, v, u)
				}
			}
			for _, u := range sim.hHatNeighbors(graph.NodeID(v)) {
				if !sim.isHNeighbor(graph.NodeID(v), u) {
					t.Fatalf("exact=%v: Ĥ edge (%d,%d) missing from H (Ĥ ⊆ H must hold)", exact, v, u)
				}
			}
		}
	}
}

func TestSimilarityExactOnCliqueIsComplete(t *testing.T) {
	// Inside one clique of a clique chain, all nodes share almost all of
	// their d2-neighbourhood... but the definitional denominator is Δ², so
	// whether they qualify depends on neighbourhood size vs Δ². Use a single
	// clique: every pair of nodes has the same d2-neighbourhood of size n-1,
	// while Δ² = (n-1)². The common fraction (n-2)/(n-1)² is far below 2/3,
	// so H must be empty — this documents that H only becomes rich when
	// neighbourhoods approach the Δ² bound (the dense regime of Section 2.1).
	g := graph.Complete(10)
	sim := buildSim(t, g, true)
	for v := 0; v < g.NumNodes(); v++ {
		if sim.hDegree(graph.NodeID(v)) != 0 {
			t.Fatalf("H should be empty on a small clique, node %d has degree %d", v, sim.hDegree(graph.NodeID(v)))
		}
	}
}

func TestSimilarityCompleteOnMooreGraphs(t *testing.T) {
	// On the Hoffman–Singleton graph every distance-2 neighbourhood is
	// exactly Δ² = 49 nodes and every pair of nodes shares 48 of them, so the
	// definitional thresholds 2/3 and 5/6 are comfortably met: H and Ĥ must
	// both be the complete graph on 50 nodes. This is the dense regime the
	// Reduce machinery is designed for (Section 2.1).
	g := graph.HoffmanSingleton()
	sim := buildSim(t, g, true)
	for v := 0; v < g.NumNodes(); v++ {
		if got := sim.hDegree(graph.NodeID(v)); got != 49 {
			t.Fatalf("H degree of node %d = %d, want 49", v, got)
		}
		if got := len(sim.hHatNeighbors(graph.NodeID(v))); got != 49 {
			t.Fatalf("Ĥ degree of node %d = %d, want 49", v, got)
		}
	}
	// Petersen (Δ = 3, Δ² = 9, common = 8 ≥ 5/6·9): also complete.
	p := graph.Petersen()
	simP := buildSim(t, p, true)
	for v := 0; v < p.NumNodes(); v++ {
		if got := simP.hDegree(graph.NodeID(v)); got != 9 {
			t.Fatalf("Petersen H degree of node %d = %d, want 9", v, got)
		}
	}
}

func TestSimilarityEmptyOnCliqueChain(t *testing.T) {
	// The similarity thresholds are fractions of Δ², not of the actual
	// neighbourhood size; on a clique chain neighbourhoods have ≈ Δ nodes, so
	// no pair can share 2Δ²/3 of them and H is empty. (Such graphs are
	// handled by the slack generated in the initial phase — Prop 2.5 — not by
	// Reduce.)
	g := graph.CliqueChain(6, 8, 0)
	sim := buildSim(t, g, true)
	for v := 0; v < g.NumNodes(); v++ {
		if sim.hDegree(graph.NodeID(v)) != 0 {
			t.Fatalf("expected empty H on a clique chain, node %d has degree %d", v, sim.hDegree(graph.NodeID(v)))
		}
	}
}

func TestSimilaritySampledApproximatesExact(t *testing.T) {
	// Theorem 2.2 (one direction, with room for the sampling noise at this
	// tiny scale): every edge the sampled construction declares must be a
	// genuinely high-overlap pair — at least a 1/3 fraction of Δ² common
	// distance-2 neighbours — and the sampled graph must cover a substantial
	// part of the exact one on the Hoffman–Singleton graph, where the exact H
	// is complete with a wide margin.
	g := graph.HoffmanSingleton()
	delta := g.MaxDegree()
	p := Default()
	p.C10 = 8 // a larger sample keeps the concentration argument valid at n = 50
	sim := buildSimilarity(g, graph.NewDist2View(g), delta, p, 99)
	declared := 0
	for v := 0; v < g.NumNodes(); v++ {
		declared += sim.hDegree(graph.NodeID(v))
		for _, u := range sim.hNeighbors(graph.NodeID(v)) {
			common := g.CommonDist2Neighbors(graph.NodeID(v), u)
			if float64(common) < float64(delta*delta)/3 {
				t.Errorf("sampled H edge (%d,%d) has only %d/%d common d2-neighbours", v, u, common, delta*delta)
			}
		}
	}
	// The exact H has 50·49 directed edges; the sample (≈17 of 49 nodes per
	// neighbourhood at this n) should recover at least half of them.
	if declared < 50*49/2 {
		t.Errorf("sampled H recovered only %d of %d directed edges", declared, 50*49)
	}
}

func TestSimilarityDegenerate(t *testing.T) {
	empty := graph.NewBuilder(3).Build()
	sim := buildSimilarity(empty, graph.NewDist2View(empty), 0, Default(), 1)
	for v := 0; v < 3; v++ {
		if sim.hDegree(graph.NodeID(v)) != 0 {
			t.Error("similarity graph of an edgeless graph should be empty")
		}
	}
	if sim.rounds <= 0 {
		t.Error("similarity construction should still charge its rounds")
	}
}

func TestSimilarityRoundChargeLogarithmic(t *testing.T) {
	small := graph.GNP(64, 0.1, 1)
	large := graph.GNP(1024, 0.006, 1)
	simSmall := buildSim(t, small, false)
	simLarge := buildSim(t, large, false)
	if simLarge.rounds <= simSmall.rounds {
		t.Errorf("round charge should grow with log n: %d vs %d", simSmall.rounds, simLarge.rounds)
	}
	if simLarge.rounds > 10*simSmall.rounds {
		t.Errorf("round charge should grow only logarithmically: %d vs %d", simSmall.rounds, simLarge.rounds)
	}
}

// buildSimilarityAllPairs is the construction buildSimilarity replaced,
// kept as the test oracle: every node streams its own N²(v) to gather Sv,
// and every distance-2 pair is intersected, whatever the sizes of its sets.
func buildSimilarityAllPairs(g *graph.Graph, d2v *graph.Dist2View, delta int, p Params, seed uint64) *similarity {
	n := g.NumNodes()
	s := &similarity{
		h:    make([][]graph.NodeID, n),
		hHat: make([][]graph.NodeID, n),
	}
	logN := log2(n)
	d2 := delta * delta
	s.rounds = int(2*logN) + 2

	if d2 == 0 {
		return s
	}

	useExact := p.ExactSimilarity || float64(d2) <= p.C10*logN

	inV := graph.NewMarkSet(n)
	nbrsV := make([]graph.NodeID, 0, d2)

	var samples [][]graph.NodeID
	var expected float64
	if !useExact {
		prob := p.C10 * logN / float64(d2)
		if prob > 1 {
			prob = 1
		}
		inSample := make([]bool, n)
		src := rng.Split(seed, 0x51A11)
		for v := 0; v < n; v++ {
			inSample[v] = src.Bernoulli(prob)
		}
		samples = make([][]graph.NodeID, n)
		for v := 0; v < n; v++ {
			d2v.ForEachDist2(graph.NodeID(v), func(u graph.NodeID) bool {
				if inSample[u] {
					samples[v] = append(samples[v], u)
				}
				return true
			})
			slices.Sort(samples[v])
		}
		expected = prob * float64(d2)
	}

	kH := 1 / (1 - p.SimilarityH)
	kHat := 1 / (1 - p.SimilarityHHat)
	fracH := 1 - 1/(2*kH)
	fracHat := 1 - 1/(2*kHat)
	if useExact {
		fracH = p.SimilarityH
		fracHat = p.SimilarityHHat
	}

	for v := 0; v < n; v++ {
		nbrsV = d2v.AppendDist2(nbrsV[:0], graph.NodeID(v))
		if useExact {
			inV.Reset()
			for _, u := range nbrsV {
				inV.Add(u)
			}
		}
		for _, u := range nbrsV {
			if u <= graph.NodeID(v) {
				continue
			}
			var count int
			var denom float64
			if useExact {
				d2v.ForEachDist2(u, func(w graph.NodeID) bool {
					if inV.Contains(w) {
						count++
					}
					return true
				})
				denom = float64(d2)
			} else {
				count = commonSortedCount(samples[u], samples[v])
				denom = expected
			}
			if denom <= 0 {
				continue
			}
			frac := float64(count) / denom
			if frac >= fracH {
				s.h[v] = append(s.h[v], u)
				s.h[u] = append(s.h[u], graph.NodeID(v))
			}
			if frac >= fracHat {
				s.hHat[v] = append(s.hHat[v], u)
				s.hHat[u] = append(s.hHat[u], graph.NodeID(v))
			}
		}
	}
	for v := 0; v < n; v++ {
		slices.Sort(s.h[v])
		slices.Sort(s.hHat[v])
	}
	return s
}

// checkSimilarityMatchesAllPairs builds H and Ĥ both ways on g and fails on
// any difference in an adjacency list or in the round charge. It returns
// the number of directed H edges, so callers can tell an empty H from a
// populated one.
func checkSimilarityMatchesAllPairs(t *testing.T, label string, g *graph.Graph, p Params, seed uint64) int {
	t.Helper()
	want := buildSimilarityAllPairs(g, graph.NewDist2View(g), g.MaxDegree(), p, seed)
	got := buildSimilarity(g, graph.NewDist2View(g), g.MaxDegree(), p, seed)
	if got.rounds != want.rounds {
		t.Fatalf("%s: rounds %d, all-pairs %d", label, got.rounds, want.rounds)
	}
	edges := 0
	for v := range want.h {
		if !slices.Equal(got.h[v], want.h[v]) {
			t.Fatalf("%s: H(%d) = %v, all-pairs %v", label, v, got.h[v], want.h[v])
		}
		if !slices.Equal(got.hHat[v], want.hHat[v]) {
			t.Fatalf("%s: Ĥ(%d) = %v, all-pairs %v", label, v, got.hHat[v], want.hHat[v])
		}
		edges += len(want.h[v])
	}
	return edges
}

// TestBuildSimilarityMatchesAllPairs checks the size-pruned, inverted
// construction against the all-pairs oracle on both the sampled and the
// exact path, on graphs where H is complete (the Moore graphs), empty
// (clique chains, small cliques) and mixed (random graphs).
func TestBuildSimilarityMatchesAllPairs(t *testing.T) {
	graphs := []struct {
		name string
		g    func(seed int64) *graph.Graph
		c10  float64
	}{
		{"hoffman-singleton", func(int64) *graph.Graph { return graph.HoffmanSingleton() }, 3},
		{"hoffman-singleton/C10=8", func(int64) *graph.Graph { return graph.HoffmanSingleton() }, 8},
		{"petersen", func(int64) *graph.Graph { return graph.Petersen() }, 3},
		{"cliquechain", func(int64) *graph.Graph { return graph.CliqueChain(6, 8, 0) }, 3},
		{"complete", func(int64) *graph.Graph { return graph.Complete(10) }, 3},
		{"gnp-avg", func(seed int64) *graph.Graph { return graph.GNPWithAverageDegree(600, 6, seed) }, 3},
		{"ba", func(seed int64) *graph.Graph { return graph.BarabasiAlbert(500, 3, seed) }, 3},
	}
	sampledEdges := 0
	for _, tc := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			g := tc.g(int64(seed))
			for _, exact := range []bool{false, true} {
				p := Default()
				p.C10 = tc.c10
				p.ExactSimilarity = exact
				label := fmt.Sprintf("%s seed %d exact=%v", tc.name, seed, exact)
				edges := checkSimilarityMatchesAllPairs(t, label, g, p, seed)
				if !exact && tc.name == "hoffman-singleton/C10=8" {
					sampledEdges += edges
				}
			}
		}
	}
	if sampledEdges == 0 {
		t.Fatal("the sampled H is empty on Hoffman–Singleton at C10=8; the comparison never sees an edge")
	}
}

// FuzzBuildSimilarity compares buildSimilarity with the all-pairs oracle on
// a fuzzed graph (1 + nb%48 nodes, edges from byte pairs, self-loops
// dropped), sampling constant C10 = (1 + c10%64)/4, either path and any
// seed.
func FuzzBuildSimilarity(f *testing.F) {
	f.Add(uint8(9), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 5, 7, 7, 9, 9, 6, 6, 8, 8, 5}, uint8(31), false, uint64(1))
	f.Add(uint8(5), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}, uint8(3), true, uint64(7))
	f.Fuzz(func(t *testing.T, nb uint8, edges []byte, c10 uint8, exact bool, seed uint64) {
		n := 1 + int(nb%48)
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges) && i < 512; i += 2 {
			if u, v := graph.NodeID(int(edges[i])%n), graph.NodeID(int(edges[i+1])%n); u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		p := Default()
		p.C10 = float64(1+int(c10%64)) / 4
		p.ExactSimilarity = exact
		checkSimilarityMatchesAllPairs(t, "fuzz", b.Build(), p, seed)
	})
}

// TestBuildSimilarityAllocs bounds the allocations of one construction by a
// constant on graphs whose H is empty (the solve shape at two sizes): the
// sample sets live in two flat arrays, so nothing is allocated per node.
func TestBuildSimilarityAllocs(t *testing.T) {
	const maxAllocs = 10
	for _, n := range []int{1000, 4000} {
		g := graph.GNPWithAverageDegree(n, 10, 1)
		d2v := graph.NewDist2View(g)
		for _, exact := range []bool{false, true} {
			p := Default()
			p.ExactSimilarity = exact
			allocs := testing.AllocsPerRun(3, func() {
				buildSimilarity(g, d2v, g.MaxDegree(), p, 1)
			})
			if allocs > maxAllocs {
				t.Errorf("n=%d exact=%v: %.0f allocs per build, want at most %d", n, exact, allocs, maxAllocs)
			}
		}
	}
}

// BenchmarkBuildSimilarity times the similarity-graph construction on the
// perfbench solve shape (gnp-avg, n = 4000, average degree 10), where no
// node's sample is large enough to enter H, and on the Hoffman–Singleton
// graph, where H is dense.
func BenchmarkBuildSimilarity(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"solve", graph.GNPWithAverageDegree(4000, 10, 1)},
		{"hoffman-singleton", graph.HoffmanSingleton()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d2v := graph.NewDist2View(bc.g)
			p := Default()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildSimilarity(bc.g, d2v, bc.g.MaxDegree(), p, uint64(i))
			}
		})
	}
}
