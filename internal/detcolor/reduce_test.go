package detcolor

import (
	"fmt"
	"slices"
	"testing"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
)

// reduceColorsRescan is the phase-rescan form of Theorem B.2 that
// reduceColors replaced, kept as the test oracle: every phase scans every
// node whose color is still >= target against a snapshot of the coloring,
// collects the strict local maxima, then recolors them in ascending order
// with the smallest color below target unused in their neighborhood.
func reduceColorsRescan(h ConflictGraph, input coloring.Coloring, target int) (coloring.Coloring, int, error) {
	n := h.NumNodes()
	if target < h.MaxDegree()+1 {
		return nil, 0, fmt.Errorf("detcolor: reduction target %d below Δ+1 = %d", target, h.MaxDegree()+1)
	}
	out := input.Clone()
	phases := 0
	maxPhases := out.MaxColor() - target + 2
	if maxPhases < 1 {
		maxPhases = 1
	}
	used := bitset.NewFixed(target)
	var recolor []int
	for ; phases < maxPhases; phases++ {
		recolor = recolor[:0]
		for v := 0; v < n; v++ {
			if out[v] < target {
				continue
			}
			isMax := true
			for _, u := range h.Neighbors(graph.NodeID(v)) {
				if out[u] > out[v] {
					isMax = false
					break
				}
			}
			if isMax {
				recolor = append(recolor, v)
			}
		}
		if len(recolor) == 0 {
			break
		}
		for _, v := range recolor {
			used.ClearAll()
			for _, u := range h.Neighbors(graph.NodeID(v)) {
				if out[u] >= 0 && out[u] < target {
					used.Set(out[u])
				}
			}
			newColor := used.FirstZero()
			if newColor < 0 {
				return nil, phases, fmt.Errorf("%w: no free color below %d for node %d", ErrIncomplete, target, v)
			}
			out[v] = newColor
		}
	}
	for v := 0; v < n; v++ {
		if out[v] >= target || out[v] < 0 {
			return nil, phases, fmt.Errorf("%w: node %d still has color %d (target %d)", ErrIncomplete, v, out[v], target)
		}
	}
	return out, phases, nil
}

// countingGraph wraps a ConflictGraph and counts Neighbors calls.
type countingGraph struct {
	ConflictGraph
	calls int
}

func (c *countingGraph) Neighbors(v graph.NodeID) []graph.NodeID {
	c.calls++
	return c.ConflictGraph.Neighbors(v)
}

// checkReduceMatchesRescan runs reduceColors and the rescan oracle on the
// same input and fails on any difference in coloring, phase count or error.
// It also bounds reduceColors' Neighbors calls by twice the number of input
// colors >= target: one fetch to count each such node's blockers and one
// when it recolors.
func checkReduceMatchesRescan(t *testing.T, label string, h ConflictGraph, input coloring.Coloring, target int) {
	t.Helper()
	want, wantPhases, wantErr := reduceColorsRescan(h, input, target)
	counted := &countingGraph{ConflictGraph: h}
	got, gotPhases, gotErr := reduceColors(counted, input, target)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s target %d: err %v, want %v", label, target, gotErr, wantErr)
	}
	if gotPhases != wantPhases || !slices.Equal(got, want) {
		t.Fatalf("%s target %d: %d phases %v, want %d phases %v", label, target, gotPhases, got, wantPhases, want)
	}
	high := 0
	for _, c := range input {
		if c >= target {
			high++
		}
	}
	if counted.calls > 2*high {
		t.Fatalf("%s target %d: %d Neighbors calls for %d high nodes, want at most %d", label, target, counted.calls, high, 2*high)
	}
}

// conflictViews returns H = G and H = G² of g, the latter both streamed and
// materialized.
func conflictViews(g *graph.Graph) map[string]ConflictGraph {
	return map[string]ConflictGraph{
		"G":         g,
		"G²/view":   graph.NewDist2View(g),
		"G²/square": g.Square(),
	}
}

// TestReduceColorsMatchesRescan checks the event-driven reduction against
// the rescan oracle on proper pipeline outputs and on random improper
// colorings (repeated colors on neighbors, uncolored nodes, colors far above
// the target), at the tight target Δ(H)+1, at looser targets, at a target
// above every color and at targets below Δ(H)+1 that must be rejected.
func TestReduceColorsMatchesRescan(t *testing.T) {
	specs := []graph.GeneratorSpec{
		{Kind: "gnp-avg", N: 300, P: 6, Seed: 1},
		{Kind: "ba", N: 200, Degree: 3, Seed: 2},
		{Kind: "unitdisk", N: 150, P: 0.12, Seed: 3},
		{Kind: "grid", N: 7, M: 9},
		{Kind: "star", N: 15},
		{Kind: "complete", N: 8},
	}
	for _, spec := range specs {
		g, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for name, h := range conflictViews(g) {
			label := spec.String() + " H=" + name
			d := h.MaxDegree()
			lin, linPalette, _, err := linial(h, identity(h.NumNodes()), h.NumNodes())
			if err != nil {
				t.Fatal(err)
			}
			proper, q, _, err := locallyIterative(h, lin, linPalette)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []int{d + 1, d + 2, (d + 1 + q) / 2, q + 1, d} {
				checkReduceMatchesRescan(t, label+" proper", h, proper, target)
			}
			src := rng.New(uint64(spec.Seed)*31 + uint64(len(name)))
			for trial := 0; trial < 4; trial++ {
				improper := randomColoring(src, h.NumNodes(), 3*(d+1))
				for _, target := range []int{d + 1, d + 5, 2 * (d + 1)} {
					checkReduceMatchesRescan(t, fmt.Sprintf("%s improper#%d", label, trial), h, improper, target)
				}
			}
		}
	}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// randomColoring draws each node's color uniformly from [-1, span), so
// uncolored nodes and neighbors sharing a color both occur.
func randomColoring(src *rng.Source, n, span int) coloring.Coloring {
	c := coloring.New(n)
	for v := range c {
		c[v] = src.Intn(span+1) - 1
	}
	return c
}

// FuzzReduceColors runs the event-driven reduction and the rescan oracle on
// a fuzzed graph (1 + nb%64 nodes, edges from byte pairs, self-loops
// dropped) and coloring (color[v] = colors[v] - 1, uncolored at 0, absent
// bytes keep color 0), with H = G or the streamed G² and the target Δ(H)+1
// plus slack%8, and requires the same coloring, phase count and error
// within the Neighbors-call bound.
func FuzzReduceColors(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{9, 8, 7, 6, 5}, uint8(0), false)
	f.Add(uint8(9), []byte{0, 1, 0, 2, 0, 3, 4, 5, 5, 6, 6, 7, 7, 8}, []byte{40, 40, 3, 0, 200, 17, 17, 90, 1}, uint8(3), true)
	f.Fuzz(func(t *testing.T, nb uint8, edges, colors []byte, slack uint8, square bool) {
		n := 1 + int(nb%64)
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges) && i < 512; i += 2 {
			if u, v := graph.NodeID(int(edges[i])%n), graph.NodeID(int(edges[i+1])%n); u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := b.Build()
		var h ConflictGraph = g
		if square {
			h = graph.NewDist2View(g)
		}
		c := coloring.New(n)
		for v := range c {
			c[v] = 0
			if v < len(colors) {
				c[v] = int(colors[v]) - 1
			}
		}
		checkReduceMatchesRescan(t, "fuzz", h, c, h.MaxDegree()+1+int(slack%8))
	})
}

// BenchmarkReduceColors times the reduction stage of Theorem 1.2 on the
// perfbench solve shape (gnp-avg, n = 4000, average degree 10): H = G²
// streamed through a Dist2View, input the locally-iterative stage's
// q-coloring, target Δ(G²)+1.
func BenchmarkReduceColors(b *testing.B) {
	g := graph.GNPWithAverageDegree(4000, 10, 1)
	h := graph.NewDist2View(g)
	lin, linPalette, _, err := linial(h, identity(g.NumNodes()), g.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	input, _, _, err := locallyIterative(h, lin, linPalette)
	if err != nil {
		b.Fatal(err)
	}
	target := h.MaxDegree() + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reduceColors(h, input, target); err != nil {
			b.Fatal(err)
		}
	}
}
