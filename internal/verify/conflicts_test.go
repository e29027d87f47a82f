package verify

import (
	"fmt"
	"slices"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
)

// conflictNodesOracle finds every node in a d2 conflict by brute-force pair
// enumeration over a streaming distance-2 view.
func conflictNodesOracle(g *graph.Graph, c coloring.Coloring) []graph.NodeID {
	view := graph.NewDist2View(g)
	var out []graph.NodeID
	var buf []graph.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if c[u] == coloring.Uncolored {
			continue
		}
		hit := false
		buf = view.AppendDist2(buf[:0], graph.NodeID(u))
		for _, v := range buf {
			if c[v] != coloring.Uncolored && c[v] == c[u] {
				hit = true
				break
			}
		}
		if hit {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

func TestConflictNodesD2MatchesOracle(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(150, 7, 3)},
		{"unitdisk", graph.UnitDisk(90, 0.16, 5)},
		{"star", graph.Star(24)},
		{"cliquechain", graph.CliqueChain(4, 5, 0)},
	}
	for _, fam := range families {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", fam.name, seed), func(t *testing.T) {
				n := fam.g.NumNodes()
				src := rng.New(seed)
				// Start from a proper coloring? Not needed: a random small
				// palette guarantees plenty of conflicts, some uncolored
				// nodes, and a few out-of-dense-range colors to exercise the
				// slow table.
				c := coloring.New(n)
				for v := 0; v < n; v++ {
					switch src.Intn(10) {
					case 0: // stays uncolored
					case 1:
						c[v] = 1 << 40 // huge color: slow-table path
					default:
						c[v] = src.Intn(6)
					}
				}
				want := conflictNodesOracle(fam.g, c)
				ch := NewChecker()
				got := ch.AppendConflictNodesD2(fam.g, c, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("conflict set diverges from oracle:\ngot  %v\nwant %v", got, want)
				}
				// Pooled reuse: a second pass on the same Checker agrees.
				if again := ch.AppendConflictNodesD2(fam.g, c, nil); !slices.Equal(again, want) {
					t.Fatalf("warm Checker diverged on reuse: %v", again)
				}
			})
		}
	}
}

func TestConflictNodesD2CleanColoring(t *testing.T) {
	g := graph.Grid(6, 6)
	// Color by (row*3+col) mod pattern wide enough to be d2-valid on a grid:
	// use a 3x3 tiling → 9 colors, distance-2 valid.
	c := coloring.New(g.NumNodes())
	for r := 0; r < 6; r++ {
		for col := 0; col < 6; col++ {
			c[r*6+col] = (r%3)*3 + col%3
		}
	}
	if rep := CheckD2(g, c, 0); !rep.Valid {
		t.Fatalf("fixture coloring invalid: %v", rep.Error())
	}
	if got := ConflictNodesD2(g, c); len(got) != 0 {
		t.Fatalf("clean coloring produced conflict nodes %v", got)
	}
}

// TestConflictNodesD2AppendsToDst: the dst-append contract — existing prefix
// untouched, appended suffix sorted.
func TestConflictNodesD2AppendsToDst(t *testing.T) {
	g := graph.Path(4)
	c := pathColoring(4, 0, 1, 0, 2) // nodes 0 and 2 share a color at distance 2
	dst := []graph.NodeID{99}
	ch := NewChecker()
	dst = ch.AppendConflictNodesD2(g, c, dst)
	want := []graph.NodeID{99, 0, 2}
	if !slices.Equal(dst, want) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

// TestCountOnlyPathStillAllocFree guards the satellite constraint: adding the
// conflict-set scan must not cost the warmed count-only Report path its
// 0 allocs/op.
func TestCountOnlyPathStillAllocFree(t *testing.T) {
	g := graph.GNPWithAverageDegree(400, 8, 1)
	c := coloring.New(g.NumNodes())
	for v := range c {
		c[v] = v // trivially valid
	}
	ch := NewChecker()
	ch.CheckD2(g, c, 0) // warm
	if allocs := testing.AllocsPerRun(10, func() { ch.CheckD2(g, c, 0) }); allocs > 0 {
		t.Errorf("warmed CheckD2 allocated %.1f times, want 0", allocs)
	}
	// The conflict-set path itself is also alloc-free once warmed and given
	// a capacious dst.
	buf := make([]graph.NodeID, 0, g.NumNodes())
	ch.AppendConflictNodesD2(g, c, buf)
	if allocs := testing.AllocsPerRun(10, func() { ch.AppendConflictNodesD2(g, c, buf[:0]) }); allocs > 0 {
		t.Errorf("warmed AppendConflictNodesD2 allocated %.1f times, want 0", allocs)
	}
}
