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
	"d2color/internal/trial"
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
	for _, target := range []Target{TargetUniform, TargetHighDegree, TargetConflictDense} {
		t.Run(target.String(), func(t *testing.T) {
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

func TestDropPlanWindowAndDeterminism(t *testing.T) {
	mk := func() *DropPlan { return &DropPlan{Seed: 3, P: 0.5, FromRound: 2, ToRound: 5} }
	p1, p2 := mk(), mk()
	inWindow, dropped := 0, 0
	for round := 0; round < 8; round++ {
		for slot := int32(0); slot < 200; slot++ {
			d1 := p1.DropMessage(round, slot)
			if d2 := p2.DropMessage(round, slot); d1 != d2 {
				t.Fatalf("decision for (round %d, slot %d) not deterministic", round, slot)
			}
			if round < 2 || round >= 5 {
				if d1 {
					t.Fatalf("dropped outside window at round %d", round)
				}
				continue
			}
			inWindow++
			if d1 {
				dropped++
			}
		}
	}
	if dropped == 0 || dropped == inWindow {
		t.Fatalf("p=0.5 dropped %d of %d in-window messages", dropped, inWindow)
	}
	if got := p1.Drops(); got != int64(dropped) {
		t.Fatalf("Drops() = %d, want %d", got, dropped)
	}
	p1.ResetCounters()
	if p1.Drops() != 0 {
		t.Fatal("ResetCounters did not zero the drop counter")
	}
	always := &DropPlan{Seed: 1, P: 1}
	if !always.DropMessage(0, 0) {
		t.Fatal("P=1 plan delivered a message")
	}
	never := &DropPlan{Seed: 1, P: 0}
	if never.DropMessage(0, 0) {
		t.Fatal("P=0 plan dropped a message")
	}
}

func TestCrashPlanWindow(t *testing.T) {
	p := &CrashPlan{Seed: 9, P: 0.4, FromRound: 3, Downtime: 2}
	crashedAny := false
	for v := graph.NodeID(0); v < 100; v++ {
		sel := p.Selected(v)
		crashedAny = crashedAny || sel
		for round := 0; round < 8; round++ {
			want := sel && round >= 3 && round < 5
			if got := p.Crashed(round, v); got != want {
				t.Fatalf("Crashed(%d, %d) = %v, want %v", round, v, got, want)
			}
		}
	}
	if !crashedAny {
		t.Fatal("p=0.4 crash plan selected no node out of 100")
	}
	idle := &CrashPlan{Seed: 9, P: 1, FromRound: 0, Downtime: 0}
	if idle.Crashed(0, 0) || idle.Selected(0) {
		t.Fatal("Downtime=0 plan crashed a node")
	}
}

func TestPlanComposesNilSafely(t *testing.T) {
	var empty Plan
	if empty.DropMessage(0, 0) || empty.Crashed(0, 0) {
		t.Fatal("zero Plan injected a fault")
	}
	full := Plan{
		Drop:  &DropPlan{Seed: 2, P: 1},
		Crash: &CrashPlan{Seed: 2, P: 1, FromRound: 0, Downtime: 1},
	}
	if !full.DropMessage(0, 0) || !full.Crashed(0, 0) {
		t.Fatal("composed Plan suppressed its members")
	}
}

// TestTrialUnderMessageLoss is the loss story end to end: a trial run under a
// lossy network is still byte-deterministic (identical colorings and drop
// counts across two runs), loses real messages, and — because dropped
// adoption notifications leave neighbors with stale knowledge — can adopt
// conflicting colors that the verifier's conflict-node set then catches.
func TestTrialUnderMessageLoss(t *testing.T) {
	g := graph.GNPWithAverageDegree(150, 6, 3)
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(graph.NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	// A tight palette plus moderate loss is the conflict-producing regime:
	// color collisions are frequent, and a dropped adoption broadcast leaves
	// the common neighbor unable to veto the second adoption. (High loss
	// rates produce *fewer* conflicts — adoption needs all 2·deg message legs
	// of a phase to survive, so almost nothing gets colored at all.)
	runOnce := func() (coloring.Coloring, int64) {
		plan := &DropPlan{Seed: 21, P: 0.1}
		res, _ := trial.Run(g, trial.Config{
			PaletteSize: maxDeg + 1,
			Scope:       trial.ScopeDistance2,
			MaxPhases:   40,
			Seed:        5,
			Faults:      plan,
		})
		return res.Coloring, plan.Drops()
	}
	c1, drops1 := runOnce()
	c2, drops2 := runOnce()
	if !slices.Equal(c1, c2) {
		t.Fatal("lossy trial runs with one seed produced different colorings")
	}
	if drops1 != drops2 {
		t.Fatalf("drop counts diverge across identical runs: %d vs %d", drops1, drops2)
	}
	if drops1 == 0 {
		t.Fatal("p=0.1 drop plan lost no message")
	}
	conflicts := verify.ConflictNodesD2(g, c1)
	if len(conflicts) == 0 {
		t.Fatal("lossy run produced no d2 conflicts — the loss story fixture regressed")
	}
	t.Logf("lossy run: %d drops, %d conflict nodes", drops1, len(conflicts))
}

func BenchmarkDropDecision(b *testing.B) {
	p := &DropPlan{Seed: 7, P: 0.1}
	for i := 0; i < b.N; i++ {
		p.DropMessage(i&1023, int32(i))
	}
}

func ExampleInjector_CorruptColors() {
	g := graph.Star(6)
	c := greedyD2(g)
	victims := NewInjector(42).CorruptColors(g, c, 2, TargetHighDegree, 0)
	fmt.Println(len(victims))
	// Output: 2
}
