package fault

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
	"d2color/internal/verify"
)

// greedyD2 builds a valid distance-2 coloring to corrupt.
func greedyD2(g *graph.Graph) coloring.Coloring {
	view := graph.NewDist2View(g)
	c := coloring.New(g.NumNodes())
	used := make(map[int]bool)
	for v := 0; v < g.NumNodes(); v++ {
		clear(used)
		view.ForEachDist2(graph.NodeID(v), func(w graph.NodeID) bool {
			if c[w] != coloring.Uncolored {
				used[c[w]] = true
			}
			return true
		})
		col := 0
		for used[col] {
			col++
		}
		c[v] = col
	}
	return c
}

// TestCorruptColorsCreatesConflicts: every victim that has a colored d2
// neighbor ends up in the verifier's conflict-node set, for all three
// targets, and the victim list is sorted and duplicate-free.
func TestCorruptColorsCreatesConflicts(t *testing.T) {
	g := graph.GNPWithAverageDegree(200, 6, 3)
	view := graph.NewDist2View(g)
	clean := greedyD2(g)
	if rep := verify.CheckD2(g, clean, 0); !rep.Valid {
		t.Fatalf("fixture coloring invalid: %v", rep.Error())
	}
	for _, tc := range []struct {
		name   string
		target Target
	}{{"uniform", TargetUniform}, {"high-degree", TargetHighDegree}, {"conflict-dense", TargetConflictDense}} {
		target := tc.target
		t.Run(tc.name, func(t *testing.T) {
			c := slices.Clone(clean)
			in := NewInjector(11)
			victims := in.CorruptColors(g, c, 12, target, 0)
			if len(victims) != 12 {
				t.Fatalf("got %d victims, want 12", len(victims))
			}
			if !slices.IsSorted(victims) {
				t.Fatalf("victims not sorted: %v", victims)
			}
			if uniq := slices.Compact(slices.Clone(victims)); len(uniq) != len(victims) {
				t.Fatalf("victims contain duplicates: %v", victims)
			}
			conflicts := verify.ConflictNodesD2(g, c)
			for _, v := range victims {
				if view.Dist2Degree(v) == 0 {
					continue // isolated victims get a random color, no conflict forced
				}
				if _, ok := slices.BinarySearch(conflicts, v); !ok {
					t.Errorf("victim %d (d2-degree %d) not in conflict set %v",
						v, view.Dist2Degree(v), conflicts)
				}
			}
		})
	}
}

func TestCorruptTargetsHub(t *testing.T) {
	g := graph.Star(10) // hub is node 0, degree 9; leaves have degree 1
	c := greedyD2(g)
	victims := NewInjector(5).CorruptColors(g, c, 1, TargetHighDegree, 0)
	if !slices.Equal(victims, []graph.NodeID{0}) {
		t.Fatalf("high-degree target picked %v, want the hub [0]", victims)
	}
}

func TestCorruptAllWhenKExceedsColored(t *testing.T) {
	g := graph.Path(5)
	c := coloring.New(5)
	c[1], c[3] = 0, 1 // only two colored nodes
	victims := NewInjector(1).CorruptColors(g, c, 10, TargetUniform, 4)
	if !slices.Equal(victims, []graph.NodeID{1, 3}) {
		t.Fatalf("got victims %v, want every colored node [1 3]", victims)
	}
	if c[0] != coloring.Uncolored || c[2] != coloring.Uncolored || c[4] != coloring.Uncolored {
		t.Fatalf("uncolored nodes were touched: %v", c)
	}
}

// TestCorruptKnownMatchesCorruptColors pins the scan-free draw: handed the
// uncolored list (nil for a complete coloring), CorruptKnown picks the same
// victims and forges the same colors as CorruptColors, for every target, on
// complete and partly uncolored colorings of random graphs across k.
func TestCorruptKnownMatchesCorruptColors(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(300)
		g := graph.GNPWithAverageDegree(n, 1+r.Float64()*8, int64(trial))
		clean := greedyD2(g)
		var uncolored []graph.NodeID
		if trial%2 == 1 {
			for i := 0; i < n/4; i++ {
				clean[r.Intn(n)] = coloring.Uncolored
			}
			for v, col := range clean {
				if col == coloring.Uncolored {
					uncolored = append(uncolored, graph.NodeID(v))
				}
			}
		}
		for _, target := range []Target{TargetUniform, TargetHighDegree, TargetConflictDense} {
			for _, k := range []int{1, 16, n / 2, n} {
				seed := uint64(trial*1000 + k)
				want, got := slices.Clone(clean), slices.Clone(clean)
				wantV := NewInjector(seed).CorruptColors(g, want, k, target, 0)
				gotV := NewInjector(seed).CorruptKnown(g, got, k, target, 0, uncolored)
				if !slices.Equal(gotV, wantV) || !slices.Equal(got, want) {
					t.Fatalf("trial %d n=%d target %d k=%d (%d uncolored): CorruptKnown victims %v, CorruptColors %v (colors equal: %v)",
						trial, n, target, k, len(uncolored), gotV, wantV, slices.Equal(got, want))
				}
			}
		}
	}
}

// TestReseedMatchesFreshInjector pins Reseed: one injector reseeded through
// a script of seeds, targets and k values — its scratch warm from every
// earlier call — returns the victims and forges the colors a fresh
// NewInjector(seed) does, on complete and partly uncolored colorings.
func TestReseedMatchesFreshInjector(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	reused := NewInjector(0)
	for step := 0; step < 60; step++ {
		n := 2 + r.Intn(250)
		g := graph.GNPWithAverageDegree(n, 1+r.Float64()*8, int64(step))
		clean := greedyD2(g)
		var uncolored []graph.NodeID
		if step%3 == 2 {
			for i := 0; i < n/4; i++ {
				clean[r.Intn(n)] = coloring.Uncolored
			}
			for v, col := range clean {
				if col == coloring.Uncolored {
					uncolored = append(uncolored, graph.NodeID(v))
				}
			}
		}
		target := []Target{TargetUniform, TargetHighDegree, TargetConflictDense}[r.Intn(3)]
		k := []int{1, 16, n / 2, n}[r.Intn(4)]
		seed := r.Uint64()
		want, got := slices.Clone(clean), slices.Clone(clean)
		wantV := NewInjector(seed).CorruptKnown(g, want, k, target, 0, uncolored)
		reused.Reseed(seed)
		gotV := reused.CorruptKnown(g, got, k, target, 0, uncolored)
		if !slices.Equal(gotV, wantV) || !slices.Equal(got, want) {
			t.Fatalf("step %d n=%d target %d k=%d: reseeded victims %v, fresh %v (colors equal: %v)",
				step, n, target, k, gotV, wantV, slices.Equal(got, want))
		}
	}
}

// TestInjectorDeterminism: two injectors with one seed and one call sequence
// produce byte-identical corruption and churn scripts, and the overlays they
// drive end in identical states.
// referenceCorruptUniform is the straightforward form of uniform
// corruption that CorruptColors must reproduce draw for draw: an explicit
// list of the colored nodes, a graph-sized mark set for distinct victims,
// and the Dist2View stream for each victim's distance-2 colors.
func referenceCorruptUniform(src *rng.Source, g *graph.Graph, c coloring.Coloring, k, palette int) []graph.NodeID {
	var colored []graph.NodeID
	for v, col := range c {
		if col != coloring.Uncolored {
			colored = append(colored, graph.NodeID(v))
		}
	}
	victims := colored
	if k < len(colored) {
		marks := graph.NewMarkSet(g.NumNodes())
		victims = nil
		for len(victims) < k {
			if v := colored[src.Intn(len(colored))]; marks.Add(v) {
				victims = append(victims, v)
			}
		}
	}
	victims = slices.Clone(victims)
	slices.Sort(victims)
	view := graph.NewDist2View(g)
	for _, v := range victims {
		var nbrColors []int
		view.ForEachDist2(v, func(w graph.NodeID) bool {
			if c[w] != coloring.Uncolored {
				nbrColors = append(nbrColors, c[w])
			}
			return true
		})
		if len(nbrColors) > 0 {
			c[v] = nbrColors[src.Intn(len(nbrColors))]
		} else {
			c[v] = src.Intn(palette)
		}
	}
	return victims
}

// TestCorruptUniformMatchesReference pins uniform corruption — victims,
// their order of draws and the forged colors — to the reference form, on
// complete and partial colorings of random graphs across k.
func TestCorruptUniformMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(200)
		g := graph.GNPWithAverageDegree(n, 1+r.Float64()*6, int64(trial))
		clean := greedyD2(g)
		if trial%2 == 1 {
			for i := 0; i < n/3; i++ {
				clean[r.Intn(n)] = coloring.Uncolored
			}
		}
		for _, k := range []int{1, 4, n / 2, n} {
			seed := uint64(trial*100 + k)
			got, want := slices.Clone(clean), slices.Clone(clean)
			gotV := NewInjector(seed).CorruptColors(g, got, k, TargetUniform, 50)
			wantV := referenceCorruptUniform(NewInjector(seed).src, g, want, k, 50)
			if !slices.Equal(gotV, wantV) || !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d k=%d: victims %v colors %v, reference %v colors %v", trial, n, k, gotV, got, wantV, want)
			}
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	base := graph.GNPWithAverageDegree(120, 5, 2)
	clean := greedyD2(base)

	type transcript struct {
		Victims  []graph.NodeID
		Colors   coloring.Coloring
		Ins, Del []graph.Edge
		NewNode  graph.NodeID
		Wire     []graph.Edge
		Removed  graph.NodeID
		Nbrs     []graph.NodeID
		Edges    []graph.Edge // final compacted state
	}
	run := func() transcript {
		in := NewInjector(77)
		c := slices.Clone(clean)
		victims := in.CorruptColors(base, c, 9, TargetUniform, 0)
		o := graph.NewOverlay(base)
		ins := in.InsertRandomEdges(o, 15)
		del := in.DeleteRandomEdges(o, 10)
		nn, wire := in.AddWiredNode(o, 3)
		rm, nbrs, ok := in.RemoveRandomNode(o)
		if !ok {
			t.Fatal("RemoveRandomNode found no live node")
		}
		return transcript{victims, c, ins, del, nn, wire, rm, nbrs, o.Compact().Edges()}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed transcripts diverge:\na: %+v\nb: %+v", a, b)
	}
	if len(a.Ins) != 15 || len(a.Del) != 10 {
		t.Fatalf("churn script came up short: %d inserts, %d deletes", len(a.Ins), len(a.Del))
	}
}

func ExampleInjector_CorruptColors() {
	g := graph.Star(6)
	c := greedyD2(g)
	victims := NewInjector(42).CorruptColors(g, c, 2, TargetHighDegree, 0)
	fmt.Println(len(victims))
	// Output: 2
}
