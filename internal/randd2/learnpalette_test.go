package randd2

import (
	"testing"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/sparsity"
	"d2color/internal/verify"
)

func TestLearnPaletteExactness(t *testing.T) {
	// Color part of a Hoffman–Singleton graph, then check that the remaining
	// palette LearnPalette reports for every live node is exactly the set of
	// colours not used among its distance-2 neighbours.
	g := graph.HoffmanSingleton()
	p := Default()
	p.ExactSimilarity = true // the |Tv| assertion below needs the exact H, not the sampled one
	r := newTestRunner(t, g, p, 2)
	for v := 0; v < 30; v++ {
		used := make(map[int]bool)
		r.d2.ForEachDist2(graph.NodeID(v), func(u graph.NodeID) bool {
			if r.col[u] != coloring.Uncolored {
				used[r.col[u]] = true
			}
			return true
		})
		c := 0
		for used[c] {
			c++
		}
		r.col[v] = c
		r.liveLeft--
	}
	r.compactLive()
	remaining, stats := r.learnPalette()
	if stats.LiveNodes != 20 {
		t.Fatalf("live nodes = %d, want 20", stats.LiveNodes)
	}
	if stats.ChargedRounds <= 0 {
		t.Error("LearnPalette should charge rounds")
	}
	for _, v := range r.live {
		want := sparsity.Leeway(r.d2, r.col, r.palette, v)
		rem := remainingColors(remaining, v)
		if len(rem) != want {
			t.Fatalf("node %d: remaining palette size %d, want leeway %d", v, len(rem), want)
		}
		for _, c := range rem {
			if r.colorUsedByColoredD2Neighbor(v, c) {
				t.Fatalf("node %d: colour %d reported available but used within distance 2", v, c)
			}
		}
	}
	// On the Hoffman–Singleton graph every d2-neighbour is an H-neighbour, so
	// the handler mechanism learns everything and |Tv| = 0.
	if stats.MaxMissing != 0 {
		t.Errorf("MaxMissing = %d, want 0 on a Moore graph", stats.MaxMissing)
	}
}

func TestFinishColoringCompletesAndStaysValid(t *testing.T) {
	g := graph.HoffmanSingleton()
	r := newTestRunner(t, g, Default(), 3)
	remaining, _ := r.learnPalette()
	fstats, err := r.finishColoring(remaining)
	if err != nil {
		t.Fatal(err)
	}
	if r.liveLeft != 0 {
		t.Fatalf("FinishColoring left %d live nodes", r.liveLeft)
	}
	if fstats.Phases == 0 || fstats.ChargedRounds != 3*fstats.Phases {
		t.Errorf("stats = %+v", fstats)
	}
	if rep := verify.CheckD2(g, r.col, r.palette); !rep.Valid {
		t.Errorf("%v", rep.Error())
	}
}

func TestFinishColoringRespectsPreexistingColors(t *testing.T) {
	g := graph.Petersen()
	r := newTestRunner(t, g, Default(), 4)
	r.col[0] = 5
	r.liveLeft--
	r.compactLive()
	remaining, _ := r.learnPalette()
	// Node 0's colour must not appear in any live node's remaining palette
	// (everyone is within distance 2 of node 0 on the Petersen graph).
	for _, v := range r.live {
		for _, c := range remainingColors(remaining, v) {
			if c == 5 {
				t.Fatalf("node %d offered colour 5, already used by its d2-neighbour 0", v)
			}
		}
	}
	if _, err := r.finishColoring(remaining); err != nil {
		t.Fatal(err)
	}
	if r.col[0] != 5 {
		t.Error("pre-existing colour was overwritten")
	}
	if rep := verify.CheckD2(g, r.col, r.palette); !rep.Valid {
		t.Errorf("%v", rep.Error())
	}
}

// remainingColors enumerates v's remaining palette in ascending colour
// order (test helper over the bitset rows).
func remainingColors(p *remainingPalettes, v graph.NodeID) []int {
	if !p.has(v) {
		return nil
	}
	row := p.palette(v)
	out := make([]int, 0, row.Count())
	for k := 0; ; k++ {
		c := row.NthSet(k)
		if c < 0 {
			return out
		}
		out = append(out, c)
	}
}

// nthFromSet is the sorted-map oracle the bitset pick replaced: the i-th
// smallest element of the set. TestFinishPickMatchesSetOracle pits the
// bitset row's popcount+NthSet pick against it.
func nthFromSet(set map[int]struct{}, i int) int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	for a := 1; a < len(keys); a++ {
		for b := a; b > 0 && keys[b] < keys[b-1]; b-- {
			keys[b], keys[b-1] = keys[b-1], keys[b]
		}
	}
	if i < 0 || i >= len(keys) {
		return -1
	}
	return keys[i]
}

func TestNthFromSetOracle(t *testing.T) {
	set := map[int]struct{}{7: {}, 2: {}, 9: {}}
	if nthFromSet(set, 0) != 2 || nthFromSet(set, 1) != 7 || nthFromSet(set, 2) != 9 {
		t.Error("nthFromSet should enumerate in increasing order")
	}
	if nthFromSet(set, 3) != -1 || nthFromSet(set, -1) != -1 {
		t.Error("out-of-range index should return -1")
	}
}

// TestFinishPickMatchesSetOracle pits FinishColoring's bitset palette pick
// (popcount + NthSet) against the sorted-map oracle it replaced, across
// palette sizes straddling word boundaries and every pick index.
func TestFinishPickMatchesSetOracle(t *testing.T) {
	for _, palette := range []int{63, 64, 65, 130} {
		p := &remainingPalettes{
			words: make([]uint64, bitset.WordsFor(palette)),
			w:     bitset.WordsFor(palette),
			row:   []int32{0},
		}
		set := map[int]struct{}{}
		row := p.palette(0)
		for c := 0; c < palette; c += 3 {
			row.Set(c)
			set[c] = struct{}{}
		}
		if got, want := row.Count(), len(set); got != want {
			t.Fatalf("palette=%d: Count = %d, oracle size %d", palette, got, want)
		}
		for k := 0; k <= len(set); k++ {
			if got, want := row.NthSet(k), nthFromSet(set, k); got != want {
				t.Fatalf("palette=%d: NthSet(%d) = %d, oracle %d", palette, k, got, want)
			}
		}
		// Claims clear bits exactly like map deletion.
		row.Clear(3)
		delete(set, 3)
		if got, want := row.NthSet(1), nthFromSet(set, 1); got != want {
			t.Fatalf("palette=%d after clear: NthSet(1) = %d, oracle %d", palette, got, want)
		}
	}
}

func TestLearnPaletteOnFullyColoredGraph(t *testing.T) {
	g := graph.Petersen()
	r := newTestRunner(t, g, Default(), 6)
	for v := 0; v < g.NumNodes(); v++ {
		r.col[v] = v
	}
	r.liveLeft = 0
	r.compactLive()
	remaining, stats := r.learnPalette()
	if stats.LiveNodes != 0 || stats.MaxLivePerNbr != 0 {
		t.Errorf("stats = %+v, want no live nodes", stats)
	}
	fstats, err := r.finishColoring(remaining)
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Phases != 0 {
		t.Errorf("finish on a complete coloring should take 0 phases, got %d", fstats.Phases)
	}
}

// TestLearnPaletteMaxLivePerNbrMatchesAllNodes checks that ϕ, counted from
// the live side, equals the definition streamed over every node: the largest
// number of live d2-neighbours of any node, live or not. Each graph is
// colored greedily on every k-th node, for several k, so both the live and
// the colored sides are non-trivial.
func TestLearnPaletteMaxLivePerNbrMatchesAllNodes(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"hoffman-singleton": graph.HoffmanSingleton(),
		"gnp-avg":           graph.GNPWithAverageDegree(300, 6, 1),
		"star":              graph.Star(20),
		"cliquechain":       graph.CliqueChain(4, 5, 1),
	} {
		for _, k := range []int{1, 2, 3, 7} {
			r := newTestRunner(t, g, Default(), 5)
			for v := 0; v < g.NumNodes(); v += k {
				used := make(map[int]bool)
				for _, u := range r.d2.Neighbors(graph.NodeID(v)) {
					used[r.col[u]] = true
				}
				c := 0
				for used[c] {
					c++
				}
				r.col[v] = c
				r.liveLeft--
			}
			r.compactLive()
			want := 0
			for v := 0; v < g.NumNodes(); v++ {
				live := 0
				for _, u := range r.d2.Neighbors(graph.NodeID(v)) {
					if r.isLive(u) {
						live++
					}
				}
				want = max(want, live)
			}
			if _, stats := r.learnPalette(); stats.MaxLivePerNbr != want {
				t.Errorf("%s, every %d-th node colored: MaxLivePerNbr = %d, all-node count %d", name, k, stats.MaxLivePerNbr, want)
			}
		}
	}
}
