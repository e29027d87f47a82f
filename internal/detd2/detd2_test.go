package detd2

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"

	"d2color/internal/detcolor"
	"d2color/internal/graph"
	"d2color/internal/rng"
	"d2color/internal/verify"
)

func TestRunOnVariousGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"gnp":   graph.GNP(70, 0.05, 1),
		"grid":  graph.Grid(8, 8),
		"star":  graph.Star(14),
		"chain": graph.CliqueChain(4, 5, 0),
		"tree":  graph.BalancedTree(2, 4),
		"path":  graph.Path(25),
	}
	for name, g := range cases {
		res, err := Run(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		delta := g.MaxDegree()
		if res.PaletteSize > delta*delta+1 {
			t.Errorf("%s: palette %d exceeds Δ²+1 = %d", name, res.PaletteSize, delta*delta+1)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: %v", name, rep.Error())
		}
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res, err := Run(graph.NewBuilder(0).Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coloring) != 0 {
		t.Error("empty graph should give empty coloring")
	}
}

func TestRoundsScaleRoughlyWithDeltaSquared(t *testing.T) {
	// Theorem 1.2: O(Δ² + log* n) rounds. With n fixed, quadrupling Δ should
	// increase the round count by far more than a constant.
	n := 400
	small := graph.RandomRegular(n, 4, 1)
	large := graph.RandomRegular(n, 16, 1)
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Metrics.TotalRounds() <= rs.Metrics.TotalRounds() {
		t.Errorf("rounds should grow with Δ: Δ=4 → %d, Δ=16 → %d",
			rs.Metrics.TotalRounds(), rl.Metrics.TotalRounds())
	}
	// Loose quantitative check on the shape: the ratio should exceed the
	// linear ratio 4 (it is dominated by the Δ² term).
	ratio := float64(rl.Metrics.TotalRounds()) / float64(rs.Metrics.TotalRounds())
	if ratio < 3 {
		t.Errorf("round ratio %.1f suspiciously small for a Δ² algorithm", ratio)
	}
}

// idMode selects how drawIDs assigns the model's O(log n)-bit identifiers.
type idMode int

const (
	// idSequential is ID(v) = v, the registered pipeline's IDs.
	idSequential idMode = iota + 1
	// idRandomPermutation is a random permutation of 1..n: a scrambled but
	// compact ID space.
	idRandomPermutation
	// idSparseRandom draws distinct values from a space of size n³, the
	// general O(log n)-bit ID assumption, which drives Linial through a real
	// iteration.
	idSparseRandom
)

// drawIDs assigns identifiers to n nodes under mode from seed, in the
// stream the simulator's ID assignment used before it was removed, so the
// pinned runs below keep their values. nil means sequential IDs, which
// detcolor.Color reads as ID(v) = v.
func drawIDs(mode idMode, n int, seed uint64) []int {
	if mode == idSequential {
		return nil
	}
	src := rng.Split(seed, 0xC0FFEE)
	ids := make([]int, n)
	if mode == idRandomPermutation {
		for v, p := range src.Perm(n) {
			ids[v] = p + 1
		}
		return ids
	}
	space := uint64(n) * uint64(n) * uint64(n)
	if space < 1024 {
		space = 1024 // keeps the space strictly larger than n on tiny graphs
	}
	seen := make(map[uint64]bool, n)
	for v := range ids {
		id := src.Uint64() % space
		for redraws := 0; seen[id]; redraws++ {
			if redraws < 64 {
				id = src.Uint64() % space
			} else {
				id = (id + 1) % space // linear probe after a collision streak
			}
		}
		seen[id] = true
		ids[v] = int(id)
	}
	return ids
}

// colorWithIDs runs the Theorem 1.2 pipeline as Run does, but with Linial
// seeded by the given IDs.
func colorWithIDs(g *graph.Graph, ids []int) (detcolor.Result, error) {
	return detcolor.Color(graph.NewDist2View(g), ids, detcolor.DefaultCostModelG2(g.MaxDegree()))
}

func TestIDAssignmentsProduceValidColorings(t *testing.T) {
	g := graph.GNP(50, 0.07, 2)
	for _, mode := range []idMode{idSequential, idRandomPermutation, idSparseRandom} {
		res, err := colorWithIDs(g, drawIDs(mode, g.NumNodes(), 3))
		if err != nil {
			t.Fatalf("ids=%d: %v", mode, err)
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("ids=%d: %v", mode, rep.Error())
		}
	}
	// The sequential draw is exactly what Run uses.
	seq, err := colorWithIDs(g, drawIDs(idSequential, g.NumNodes(), 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if hashColoring(seq.Coloring) != hashColoring(res.Coloring) || seq.Metrics != res.Metrics {
		t.Error("Run differs from the pipeline on sequential IDs")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.Grid(6, 7)
	a, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatal("deterministic algorithm produced different colorings")
		}
	}
	if a.Metrics.TotalRounds() != b.Metrics.TotalRounds() {
		t.Error("round counts should be identical across runs")
	}
}

func TestStagesReported(t *testing.T) {
	g := graph.GNP(60, 0.06, 9)
	res, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.LinialColors == 0 || res.Stages.IterativeColors == 0 {
		t.Error("intermediate palette sizes should be reported")
	}
	sum := res.Stages.LinialRounds + res.Stages.IterativeRounds + res.Stages.ReductionRounds
	if sum != res.Metrics.TotalRounds() {
		t.Errorf("stage rounds %d do not sum to total %d", sum, res.Metrics.TotalRounds())
	}
}

func TestPropertyValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.GNP(40, 0.1, seed)
		res, err := Run(g)
		if err != nil {
			return false
		}
		return verify.CheckD2(g, res.Coloring, g.MaxDegree()*g.MaxDegree()+1).Valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// hashColoring is FNV-64a over each color's 8-byte little-endian encoding,
// the same digest the registry golden uses.
func hashColoring(c []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, col := range c {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(col)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRandomIDRunsPinned pins the coloring and every stage's palette and
// rounds under the two randomized ID draws, captured before Linial switched
// to a flat coefficient table, before the IDs were drawn without building
// an engine, and before the draw moved into this test. idSparseRandom
// drives Linial through a real iteration; idRandomPermutation starts it
// from a compact ID space.
func TestRandomIDRunsPinned(t *testing.T) {
	pins := []struct {
		spec            graph.GeneratorSpec
		ids             idMode
		hash            string
		linialColors    int
		linialRounds    int
		iterativeColors int
		iterativeRounds int
		reductionRounds int
	}{
		{graph.GeneratorSpec{Kind: "gnp-avg", N: 600, P: 8, Seed: 1}, idSparseRandom, "ebbdcfbea5896d9f", 94249, 34, 307, 10, 63},
		{graph.GeneratorSpec{Kind: "gnp-avg", N: 600, P: 8, Seed: 1}, idRandomPermutation, "df1b41edea5b7974", 601, 34, 307, 10, 72},
		{graph.GeneratorSpec{Kind: "ba", N: 500, Degree: 3, Seed: 2}, idSparseRandom, "11772d4ed0b03851", 502681, 116, 709, 8, 113},
		{graph.GeneratorSpec{Kind: "ba", N: 500, Degree: 3, Seed: 2}, idRandomPermutation, "86789e60c875cd9b", 501, 116, 709, 4, 91},
		{graph.GeneratorSpec{Kind: "unitdisk", N: 300, P: 0.09, Seed: 3}, idSparseRandom, "d3f320223ad59799", 3721, 34, 67, 8, 30},
		{graph.GeneratorSpec{Kind: "unitdisk", N: 300, P: 0.09, Seed: 3}, idRandomPermutation, "0aee589bc8e8dc8c", 301, 34, 67, 10, 32},
	}
	for _, p := range pins {
		g, err := p.spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		st, err := colorWithIDs(g, drawIDs(p.ids, g.NumNodes(), 5))
		if err != nil {
			t.Fatalf("%s ids=%d: %v", p.spec, p.ids, err)
		}
		got := []int{st.LinialColors, st.LinialRounds, st.IterativeColors, st.IterativeRounds, st.ReductionRounds}
		want := []int{p.linialColors, p.linialRounds, p.iterativeColors, p.iterativeRounds, p.reductionRounds}
		if h := hashColoring(st.Coloring); h != p.hash || !slices.Equal(got, want) {
			t.Errorf("%s ids=%d: hash %s stages %v, want %s %v", p.spec, p.ids, h, got, p.hash, want)
		}
	}
}

// BenchmarkDeterministicD2 times the whole Theorem 1.2 pipeline on the
// perfbench solve shape: gnp-avg, n = 4000, average degree 10, sequential
// IDs (the registry's "deterministic" entry).
func BenchmarkDeterministicD2(b *testing.B) {
	g := graph.GNPWithAverageDegree(4000, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunSparseIDsAllocs bounds the allocations of a run on the perfbench
// solve shape under idSparseRandom, the draw that drives Linial through a
// real iteration: Linial evaluates neighbor polynomials from one flat
// coefficient table per iteration. The draw's own allocations count too.
func TestRunSparseIDsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline on n = 4000 four times")
	}
	g := graph.GNPWithAverageDegree(4000, 10, 1)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := colorWithIDs(g, drawIDs(idSparseRandom, g.NumNodes(), 1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("pipeline with idSparseRandom: %.0f allocs/op, want < 1000", allocs)
	}
	t.Logf("%.0f allocs/op", allocs)
}
