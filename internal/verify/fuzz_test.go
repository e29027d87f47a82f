package verify

import (
	"reflect"
	"slices"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// fuzzInput decodes one FuzzCheckD2 input: a graph on 1 + nb%64 nodes whose
// edges are the byte pairs of edges (modulo n, self-loops dropped), the
// greedy distance-2 coloring of it, and that coloring with the per-node
// overrides in colors applied. An override byte b leaves the greedy color
// when b%8 < 4, uncolors the node at 4, sets a huge slow-table color
// 2⁴⁰ + b>>5 at 5, and a small color b>>3 at 6 and 7.
func fuzzInput(nb uint8, edges, colors []byte) (*graph.Graph, coloring.Coloring, coloring.Coloring) {
	n := 1 + int(nb%64)
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(edges) && i < 512; i += 2 {
		if u, v := graph.NodeID(int(edges[i])%n), graph.NodeID(int(edges[i+1])%n); u != v {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	g := b.Build()
	base := greedyD2(g)
	c := base.Clone()
	for v, x := range colors[:min(len(colors), n)] {
		switch x % 8 {
		case 4:
			c[v] = coloring.Uncolored
		case 5:
			c[v] = 1<<40 + int(x>>5)
		case 6, 7:
			c[v] = int(x >> 3)
		}
	}
	return g, base, c
}

// within2 reports whether u ≠ v are at most two hops apart.
func within2(g *graph.Graph, u, v graph.NodeID) bool {
	for _, w := range g.Neighbors(u) {
		if w == v || slices.Contains(g.Neighbors(w), v) {
			return true
		}
	}
	return false
}

// FuzzCheckD2 checks the verifier's passes on small fuzzed graphs and
// colorings — uncolored nodes and huge slow-table colors included — against
// conflictNodesOracle's brute-force pair enumeration: CheckD2, CheckD1 and
// CheckPartialD2 verdicts and color stats, every reported distance-2
// conflict pair, the exact AppendConflictNodesD2 set, and a warm RecheckD2
// from the certified greedy coloring, which must deep-equal a full CheckD2.
func FuzzCheckD2(f *testing.F) {
	f.Add(uint8(5), uint8(0), []byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{})
	f.Add(uint8(9), uint8(12), []byte{0, 1, 0, 2, 0, 3, 4, 5, 5, 6, 6, 7, 7, 8}, []byte{0, 4, 5, 6, 13, 14, 0, 0, 37})
	f.Fuzz(func(t *testing.T, nb, pb uint8, edges, colors []byte) {
		g, base, c := fuzzInput(nb, edges, colors)
		palette := int(pb % 80) // 0 skips the palette bound
		conflicts := conflictNodesOracle(g, c)
		complete, inPalette, d1Clean := true, true, true
		for u, col := range c {
			if col == coloring.Uncolored {
				complete = false
				continue
			}
			if col < 0 || (palette > 0 && col >= palette) {
				inPalette = false
			}
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				if c[v] == col {
					d1Clean = false
				}
			}
		}

		rep := CheckD2(g, c, palette)
		if want := complete && inPalette && len(conflicts) == 0; rep.Valid != want {
			t.Fatalf("CheckD2 valid = %v, want %v: %v", rep.Valid, want, rep.Violations)
		}
		if rep.ColorsUsed != c.NumColorsUsed() || rep.MaxColor != c.MaxColor() {
			t.Fatalf("CheckD2 stats %d/%d, want %d/%d", rep.ColorsUsed, rep.MaxColor, c.NumColorsUsed(), c.MaxColor())
		}
		sawConflict := false
		for _, vi := range rep.Violations {
			if vi.Kind != "conflict-d2" {
				continue
			}
			sawConflict = true
			if vi.U == vi.V || c[vi.U] != c[vi.V] || !within2(g, vi.U, vi.V) {
				t.Fatalf("CheckD2 reported a false conflict: %v", vi)
			}
		}
		if len(conflicts) > 0 && len(rep.Violations) < maxViolations && !sawConflict {
			t.Fatalf("CheckD2 missed the conflicts at %v", conflicts)
		}
		if d1 := CheckD1(g, c, palette); d1.Valid != (complete && inPalette && d1Clean) {
			t.Fatalf("CheckD1 valid = %v, want %v", d1.Valid, complete && inPalette && d1Clean)
		}
		partial := CheckPartialD2(g, c)
		if partial.Valid != (len(conflicts) == 0) || partial.ColorsUsed != rep.ColorsUsed || partial.MaxColor != rep.MaxColor {
			t.Fatalf("CheckPartialD2 = %+v, want valid %v", partial, len(conflicts) == 0)
		}
		if got := NewChecker().AppendConflictNodesD2(g, c, nil); !slices.Equal(got, conflicts) {
			t.Fatalf("AppendConflictNodesD2 = %v, oracle %v", got, conflicts)
		}

		warm := NewChecker()
		warm.CheckD2(g, base, palette)
		var touched []graph.NodeID
		for v := range c {
			if c[v] != base[v] {
				touched = append(touched, graph.NodeID(v))
			}
		}
		if got := warm.RecheckD2(g, c, palette, touched); !reflect.DeepEqual(got, rep) {
			t.Fatalf("RecheckD2 = %+v, CheckD2 = %+v", got, rep)
		}
	})
}
