package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// benchGraphAndColoring builds a sparse GNP workload together with a valid
// greedy d2-coloring of it (the shape every experiment run feeds the
// verifier).
func benchGraphAndColoring(n int) (*graph.Graph, coloring.Coloring) {
	g := graph.GNPWithAverageDegree(n, 8, 17)
	d2 := graph.NewDist2View(g)
	c := coloring.New(n)
	used := map[int]bool{}
	for v := 0; v < n; v++ {
		clear(used)
		d2.ForEachDist2(graph.NodeID(v), func(u graph.NodeID) bool {
			if c[u] != coloring.Uncolored {
				used[c[u]] = true
			}
			return true
		})
		col := 0
		for used[col] {
			col++
		}
		c[v] = col
	}
	return g, c
}

// wideGraphAndColoring builds the same graph as benchGraphAndColoring but
// colors each node with a uniformly random free color of the Δ²+1 palette —
// the shape of the relaxed baseline's output, which the serving plane
// verifies. Its colors spread over Δ²/64 words per neighborhood, where the
// greedy coloring's fit in one or two.
func wideGraphAndColoring(n int) (*graph.Graph, coloring.Coloring) {
	g := graph.GNPWithAverageDegree(n, 8, 17)
	d2 := graph.NewDist2View(g)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	rng := rand.New(rand.NewSource(23))
	c := coloring.New(n)
	used := make([]bool, palette)
	var free []int
	for v := 0; v < n; v++ {
		clear(used)
		d2.ForEachDist2(graph.NodeID(v), func(u graph.NodeID) bool {
			if c[u] != coloring.Uncolored {
				used[c[u]] = true
			}
			return true
		})
		free = free[:0]
		for col, taken := range used {
			if !taken {
				free = append(free, col)
			}
		}
		c[v] = free[rng.Intn(len(free))]
	}
	return g, c
}

// BenchmarkVerify measures the full CheckD2 pass (conflict scan + color
// stats) on a valid coloring — the verifier cost every experiment repetition
// pays — for the greedy (narrow) and the Δ²+1 random (wide) color shapes.
func BenchmarkVerify(b *testing.B) {
	for _, shape := range []struct {
		prefix string
		build  func(int) (*graph.Graph, coloring.Coloring)
	}{{"", benchGraphAndColoring}, {"wide/", wideGraphAndColoring}} {
		for _, n := range []int{10_000, 100_000} {
			b.Run(fmt.Sprintf("%sn=%d", shape.prefix, n), func(b *testing.B) {
				g, c := shape.build(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rep := CheckD2(g, c, 0); !rep.Valid {
						b.Fatal("valid coloring rejected")
					}
				}
			})
		}
	}
}

// recheckFlip is BenchmarkRecheckD2's workload: nodes pairwise more than two
// hops apart, each with an alternative color free in its distance-2
// neighborhood, so flipping all of them together keeps the coloring valid.
type recheckFlip struct {
	nodes     []graph.NodeID
	orig, alt []int
	flipped   bool
}

func newRecheckFlip(g *graph.Graph, c coloring.Coloring, palette, k int) *recheckFlip {
	rng := rand.New(rand.NewSource(5))
	blocked := make([]bool, g.NumNodes())
	f := &recheckFlip{}
	for len(f.nodes) < k {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if blocked[v] {
			continue
		}
		col := freeColor(g, c, v, palette, rng)
		if col < 0 {
			continue
		}
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
			for _, w := range g.Neighbors(u) {
				blocked[w] = true
			}
		}
		f.nodes = append(f.nodes, v)
		f.orig = append(f.orig, c[v])
		f.alt = append(f.alt, col)
	}
	return f
}

// flip moves every node to its other color.
func (f *recheckFlip) flip(c coloring.Coloring) {
	f.flipped = !f.flipped
	to := f.orig
	if f.flipped {
		to = f.alt
	}
	for i, v := range f.nodes {
		c[v] = to[i]
	}
}

// BenchmarkRecheckD2 measures the certified recheck of 32 changed nodes on
// the wide (Δ²+1 random) coloring — the served verify after a churn epoch —
// against BenchmarkVerify's full pass at the same n.
func BenchmarkRecheckD2(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, c := wideGraphAndColoring(n)
			palette := g.MaxDegree()*g.MaxDegree() + 1
			f := newRecheckFlip(g, c, palette, 32)
			ch := NewChecker()
			ch.CheckD2(g, c, palette)
			f.flip(c)
			ch.RecheckD2(g, c, palette, f.nodes) // builds the count table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.flip(c)
				if rep := ch.RecheckD2(g, c, palette, f.nodes); !rep.Valid {
					b.Fatal("valid coloring rejected")
				}
			}
		})
	}
}

// BenchmarkVerifyOutOfRange measures CheckD2 on a coloring sprinkled with
// colors outside the dense table range (the corrupt-coloring slow path): the
// out-of-range bookkeeping must not churn allocations per neighborhood.
func BenchmarkVerifyOutOfRange(b *testing.B) {
	g, c := benchGraphAndColoring(10_000)
	huge := int(^uint(0)>>1) - 64
	for v := 0; v < len(c); v += 97 {
		c[v] = huge + v%13 // far outside any dense table
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := CheckD2(g, c, 0)
		if rep.Valid {
			b.Fatal("out-of-palette colors must be flagged by the complete check")
		}
	}
}

// benchWarmedValid is the shared body of the 0-alloc regression gates: a
// warmed Checker running CheckD2 on a valid coloring (optionally sprinkled
// with distinct out-of-range colors, exercising the pooled slow list).
func benchWarmedValid(b *testing.B, outOfRange bool) {
	g, c := benchGraphAndColoring(10_000)
	if outOfRange {
		huge := int(^uint(0)>>1) - len(c)
		for v := 0; v < len(c); v += 97 {
			c[v] = huge + v // distinct per node: valid, but far outside the dense range
		}
	}
	ch := NewChecker()
	if rep := ch.CheckD2(g, c, 0); !rep.Valid {
		b.Fatal("coloring must be valid")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := ch.CheckD2(g, c, 0); !rep.Valid {
			b.Fatal("valid coloring rejected")
		}
	}
}

// BenchmarkVerifyWarmed is the warmed-Checker probe; its 0 allocs/op
// acceptance criterion is enforced by TestVerifyAllocFree.
func BenchmarkVerifyWarmed(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchWarmedValid(b, false) })
	b.Run("outOfRange", func(b *testing.B) { benchWarmedValid(b, true) })
}

// TestVerifyAllocFree asserts that a warmed verifier performs zero heap
// allocations per pass, on purely dense colorings and on colorings routed
// through the out-of-range slow list alike.
func TestVerifyAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10k benchmark probe skipped in -short mode")
	}
	for _, tc := range []struct {
		name       string
		outOfRange bool
	}{{"dense", false}, {"outOfRange", true}} {
		res := testing.Benchmark(func(b *testing.B) { benchWarmedValid(b, tc.outOfRange) })
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: warmed CheckD2 at n=10k: %d allocs/op, want 0", tc.name, allocs)
		}
	}
}
