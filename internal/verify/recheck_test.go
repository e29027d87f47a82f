package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// freeColor returns a color in [0, palette) held by no node of N²(v) other
// than v, or -1 if rng found none in a few draws.
func freeColor(g *graph.Graph, c coloring.Coloring, v graph.NodeID, palette int, rng *rand.Rand) int {
	taken := map[int]bool{}
	for _, u := range g.Neighbors(v) {
		taken[c[u]] = true
		for _, w := range g.Neighbors(u) {
			if w != v {
				taken[c[w]] = true
			}
		}
	}
	for try := 0; try < 8; try++ {
		if col := rng.Intn(palette); !taken[col] {
			return col
		}
	}
	return -1
}

// TestRecheckD2MatchesCheckD2 is the differential suite of the certified
// recheck: random graphs under random scripts of color changes — valid moves
// (the incremental path), conflicting copies, uncolored, out-of-palette,
// negative and ≥ 2²² colors, restores, duplicate and superset touched lists,
// a palette switch and a graph switch. After every step RecheckD2, fed a
// superset of the changed nodes, must deep-equal a fresh CheckD2.
func TestRecheckD2MatchesCheckD2(t *testing.T) {
	graphs, steps := 12, 300
	if testing.Short() {
		graphs, steps = 4, 120
	}
	fast := 0
	for gi := 0; gi < graphs; gi++ {
		rng := rand.New(rand.NewSource(int64(100 + gi)))
		n := 20 + rng.Intn(120)
		g := graph.GNP(n, 3/float64(n)+rng.Float64()*0.08, int64(gi))
		other := graph.GNP(n, 0.05, int64(1000+gi)) // same n, other edges
		c := greedyD2(g)
		palette := g.MaxDegree()*g.MaxDegree() + 1
		if gi%3 == 2 {
			palette = 0 // no palette bound
		}
		ch := NewChecker()
		curG, curPalette := g, palette
		check := func(step int, kind string, touched []graph.NodeID) {
			t.Helper()
			got := ch.RecheckD2(curG, c, curPalette, touched)
			want := CheckD2(curG, c, curPalette)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d step %d (%s, touched %v): RecheckD2 = %+v, CheckD2 = %+v",
					gi, step, kind, touched, got, want)
			}
			if len(touched) > 0 && ch.countsOK {
				fast++
			}
		}
		check(-1, "seed", nil)
		// saved holds the last valid coloring, so restore steps return to
		// the incremental path.
		saved := c.Clone()
		for step := 0; step < steps; step++ {
			var changed []graph.NodeID
			set := func(v graph.NodeID, col int) {
				c[v] = col
				changed = append(changed, v)
			}
			v := graph.NodeID(rng.Intn(n))
			kind := ""
			switch k := rng.Intn(100); {
			case k < 55:
				kind = "valid moves"
				for i := 1 + rng.Intn(4); i > 0; i-- {
					v := graph.NodeID(rng.Intn(n))
					// Mostly below n, where the count table covers the
					// move; now and then up to Δ²+1, where it may not.
					p := g.MaxDegree()*g.MaxDegree() + 1
					if curPalette > 0 {
						p = curPalette
					}
					if rng.Intn(10) > 0 {
						p = min(p, n)
					}
					if col := freeColor(curG, c, v, p, rng); col >= 0 {
						set(v, col)
					}
				}
			case k < 61:
				// A copy from a neighbor (distance 1) or from one of its
				// neighbors (distance 2, or v itself).
				kind = "conflicting copy"
				if nb := curG.Neighbors(v); len(nb) > 0 {
					u := nb[rng.Intn(len(nb))]
					if nb2 := curG.Neighbors(u); rng.Intn(2) == 0 {
						kind, u = "distance-2 copy", nb2[rng.Intn(len(nb2))]
					}
					set(v, c[u])
				}
			case k < 64:
				kind = "uncolored"
				set(v, coloring.Uncolored)
			case k < 66:
				kind = "out of palette"
				set(v, max(curPalette, 1)+rng.Intn(3))
			case k < 68:
				kind = "negative sentinel"
				set(v, -2-rng.Intn(5))
			case k < 70:
				kind = "huge color"
				set(v, denseColorLimit+rng.Intn(5))
			case k < 73:
				kind = "no change"
			case k < 75:
				kind = "palette switch"
				if curPalette > 0 {
					curPalette = 0
				} else {
					curPalette = palette
				}
			case k < 77:
				kind = "graph switch"
				if curG == g {
					curG = other
				} else {
					curG = g
				}
			default:
				kind = "restore"
				for u := range c {
					if c[u] != saved[u] {
						set(graph.NodeID(u), saved[u])
					}
				}
				curG, curPalette = g, palette
			}
			touched := changed
			switch rng.Intn(4) {
			case 0: // duplicates
				touched = append(append([]graph.NodeID(nil), changed...), changed...)
			case 1: // superset: unchanged nodes too
				touched = append([]graph.NodeID(nil), changed...)
				for i := rng.Intn(4); i >= 0; i-- {
					touched = append(touched, graph.NodeID(rng.Intn(n)))
				}
			}
			check(step, kind, touched)
			if curG == g && curPalette == palette && CheckD2(g, c, palette).Valid {
				copy(saved, c)
			}
		}
	}
	if min := graphs * steps / 20; fast < min {
		t.Errorf("only %d rechecks took the incremental path, want at least %d", fast, min)
	}
}

// TestRecheckD2FallsBackOnWideColors pins the count-table rule: a certified
// coloring whose MaxColor is not below min(n, palette) never builds the
// table, and every non-empty recheck is a full check with the same answer.
func TestRecheckD2FallsBackOnWideColors(t *testing.T) {
	g := graph.Path(6)
	c := pathColoring(6, 0, 100, 200, 300, 400, 500)
	ch := NewChecker()
	if rep := ch.CheckD2(g, c, 0); !rep.Valid || rep.MaxColor != 500 {
		t.Fatalf("seed pass: %+v", rep)
	}
	c[2] = 600
	got, want := ch.RecheckD2(g, c, 0, []graph.NodeID{2}), CheckD2(g, c, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RecheckD2 = %+v, CheckD2 = %+v", got, want)
	}
	if ch.counts != nil {
		t.Errorf("count table built for MaxColor %d on n = 6", want.MaxColor)
	}
}

// TestRecheckD2VoidedByOtherPasses pins that any pass rewriting the
// Checker's copy ends the certificate: after a CheckD1 or a conflict-set
// scan of another coloring, a recheck with an empty touched list must not
// return the stale verdict.
func TestRecheckD2VoidedByOtherPasses(t *testing.T) {
	g := graph.Path(4)
	good := pathColoring(4, 0, 1, 2, 0)
	bad := pathColoring(4, 0, 1, 0, 1)
	for name, pass := range map[string]func(ch *Checker){
		"CheckD1":               func(ch *Checker) { ch.CheckD1(g, bad, 0) },
		"CheckPartialD2":        func(ch *Checker) { ch.CheckPartialD2(g, bad) },
		"AppendConflictNodesD2": func(ch *Checker) { ch.AppendConflictNodesD2(g, bad, nil) },
		"invalid CheckD2":       func(ch *Checker) { ch.CheckD2(g, bad, 0) },
	} {
		ch := NewChecker()
		if !ch.CheckD2(g, good, 0).Valid {
			t.Fatal("seed coloring rejected")
		}
		pass(ch)
		if got := ch.RecheckD2(g, bad, 0, nil); got.Valid {
			t.Errorf("after %s: RecheckD2 returned the voided verdict %+v", name, got)
		}
	}
}

// TestRecheckD2AllocFree: a warmed recheck of 32 valid moves on a 10⁴-node
// coloring allocates nothing.
func TestRecheckD2AllocFree(t *testing.T) {
	g, c := wideGraphAndColoring(10_000)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	f := newRecheckFlip(g, c, palette, 32)
	ch := NewChecker()
	ch.CheckD2(g, c, palette)
	allocs := testing.AllocsPerRun(50, func() {
		f.flip(c)
		if !ch.RecheckD2(g, c, palette, f.nodes).Valid {
			t.Fatal("valid moves rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("warmed RecheckD2: %v allocs/op, want 0", allocs)
	}
}
