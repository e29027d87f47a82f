package sweep_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"d2color/internal/alg"
	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/sweep"

	_ "d2color/internal/randd2" // registry entries used by the grid tests
)

// countingAlg is a trivial deterministic algorithm that records how often it
// ran and reports a measure derived from its inputs.
func countingAlg(name string, class alg.Determinism, runs *atomic.Int64) alg.Algorithm {
	return alg.Func{
		AlgName: name,
		Class:   class,
		Palette: func(*graph.Graph) int { return 1 },
		RunFunc: func(g *graph.Graph, _ alg.Engine, seed uint64) (alg.Result, error) {
			runs.Add(1)
			c := coloring.New(g.NumNodes())
			for v := range c {
				c[v] = 0
			}
			return alg.Result{Coloring: c, PaletteSize: 1, Details: seed}, nil
		},
	}
}

func testPoints(ns ...int) []sweep.Point {
	var pts []sweep.Point
	for _, n := range ns {
		n := n
		pts = append(pts, sweep.Point{Build: func() (*graph.Graph, string, error) {
			return graph.Cycle(n), fmt.Sprintf("cycle-%d", n), nil
		}})
	}
	return pts
}

func TestGridShapeAndOrder(t *testing.T) {
	var runs atomic.Int64
	spec := sweep.Spec{
		Name:   "shape",
		Points: testPoints(4, 5, 6),
		Algorithms: []sweep.AlgAxis{
			{Alg: countingAlg("a", alg.Randomized, &runs)},
			{Alg: countingAlg("b", alg.Randomized, &runs)},
		},
		Reps: 3,
		Seed: 10,
	}
	grid, err := sweep.Run(spec, sweep.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 3*2 {
		t.Fatalf("cells = %d, want 6", len(grid.Cells))
	}
	if got := runs.Load(); got != 6*3 {
		t.Errorf("runs = %d, want 18 (3 reps per cell)", got)
	}
	for pi := 0; pi < 3; pi++ {
		for ai := 0; ai < 2; ai++ {
			c := grid.Cell(pi, ai)
			if c.PointIndex != pi || c.AlgIndex != ai {
				t.Fatalf("Cell(%d,%d) returned indices (%d,%d)", pi, ai, c.PointIndex, c.AlgIndex)
			}
			if c.Label != fmt.Sprintf("cycle-%d", []int{4, 5, 6}[pi]) {
				t.Errorf("cell label %q", c.Label)
			}
			if c.Sample == nil || c.Sample.Details.(uint64) != 10 {
				t.Errorf("Sample should be the rep-0 run (seed 10)")
			}
			if c.Reps != 3 {
				t.Errorf("Reps = %d", c.Reps)
			}
		}
	}
}

func TestDeterministicAlgorithmsRunOnce(t *testing.T) {
	var runs atomic.Int64
	spec := sweep.Spec{
		Name:       "det-once",
		Points:     testPoints(4),
		Algorithms: []sweep.AlgAxis{{Alg: countingAlg("d", alg.Deterministic, &runs)}},
		Reps:       5,
	}
	grid, err := sweep.Run(spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("deterministic algorithm ran %d times, want 1", runs.Load())
	}
	if grid.Cell(0, 0).Reps != 1 {
		t.Errorf("cell Reps = %d, want 1", grid.Cell(0, 0).Reps)
	}
}

func TestPerAxisRepsOverride(t *testing.T) {
	var runs atomic.Int64
	spec := sweep.Spec{
		Name:       "override",
		Points:     testPoints(4),
		Algorithms: []sweep.AlgAxis{{Alg: countingAlg("r", alg.Randomized, &runs), Reps: 2}},
		Reps:       7,
	}
	if _, err := sweep.Run(spec, sweep.Options{}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Errorf("axis override ignored: %d runs, want 2", runs.Load())
	}
}

func TestSeedStride(t *testing.T) {
	var seeds []uint64
	a := alg.Func{
		AlgName: "s", Class: alg.Randomized,
		RunFunc: func(g *graph.Graph, _ alg.Engine, seed uint64) (alg.Result, error) {
			seeds = append(seeds, seed)
			return alg.Result{Coloring: coloring.New(g.NumNodes())}, nil
		},
	}
	spec := sweep.Spec{
		Name: "stride", Points: testPoints(3),
		Algorithms: []sweep.AlgAxis{{Alg: a}},
		Reps:       3, Seed: 5,
	}
	if _, err := sweep.Run(spec, sweep.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 5 + 101, 5 + 202}; !slices.Equal(seeds, want) {
		t.Errorf("rep seeds = %v, want %v (stride %d)", seeds, want, sweep.SeedStride)
	}
}

func TestAggStreaming(t *testing.T) {
	var a sweep.Agg
	xs := []float64{4, 7, 13, 16}
	var sum float64
	for _, x := range xs {
		a.Add(x)
		sum += x
	}
	if a.Count != 4 || a.Sum != sum {
		t.Errorf("count/sum = %d/%g", a.Count, a.Sum)
	}
	if a.Mean() != sum/4 {
		t.Errorf("mean = %g, want the order-preserving Sum/Count", a.Mean())
	}
	if a.Max() != 16 {
		t.Errorf("max = %g", a.Max())
	}
	var neg sweep.Agg
	neg.Add(-3)
	neg.Add(-5)
	if neg.Max() != -3 {
		t.Errorf("max of negative observations = %g, want -3", neg.Max())
	}
	var zero sweep.Agg
	if zero.Mean() != 0 || zero.Max() != 0 {
		t.Error("empty aggregate accessors should be 0")
	}
}

func TestCellErrorIsDeterministicAndLabeled(t *testing.T) {
	boom := errors.New("boom")
	failing := alg.Func{
		AlgName: "fail", Class: alg.Randomized,
		RunFunc: func(g *graph.Graph, _ alg.Engine, _ uint64) (alg.Result, error) {
			if g.NumNodes() >= 5 {
				return alg.Result{}, boom
			}
			return alg.Result{Coloring: coloring.New(g.NumNodes())}, nil
		},
	}
	spec := sweep.Spec{
		Name: "errs", Points: testPoints(4, 5, 6),
		Algorithms: []sweep.AlgAxis{{Alg: failing}},
	}
	for _, jobs := range []int{1, 8} {
		_, err := sweep.Run(spec, sweep.Options{Jobs: jobs})
		if !errors.Is(err, boom) {
			t.Fatalf("jobs=%d: err = %v, want wrapped boom", jobs, err)
		}
		// The lowest-indexed failing cell (point 1, cycle-5) wins even when a
		// later cell fails first on the wall clock.
		if got := err.Error(); !strings.Contains(got, "cycle-5") || !strings.Contains(got, "fail") {
			t.Errorf("jobs=%d: error should name the first failing cell and algorithm: %v", jobs, got)
		}
	}
}

func TestPointBuildErrors(t *testing.T) {
	spec := sweep.Spec{
		Name: "badpoint",
		Points: []sweep.Point{{Label: "p0", Build: func() (*graph.Graph, string, error) {
			return nil, "", errors.New("no graph")
		}}},
		Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet("rand-improved")}},
	}
	if _, err := sweep.Run(spec, sweep.Options{}); err == nil {
		t.Fatal("point build errors must fail the sweep")
	}
	if _, err := sweep.Run(sweep.Spec{Name: "nil-build", Points: []sweep.Point{{Label: "x"}},
		Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet("rand-improved")}}}, sweep.Options{}); err == nil {
		t.Fatal("nil Build must fail the sweep")
	}
}

func TestEmptyAxesAreErrors(t *testing.T) {
	if _, err := sweep.Run(sweep.Spec{Name: "no-points",
		Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet("rand-improved")}}}, sweep.Options{}); err == nil {
		t.Error("no points should be an error")
	}
	if _, err := sweep.Run(sweep.Spec{Name: "no-algs", Points: testPoints(4)}, sweep.Options{}); err == nil {
		t.Error("no algorithms should be an error")
	}
}

// TestKernelReuseAcrossReps asserts that the per-cell memoized trial kernel
// is handed to every repetition of a kernel-using algorithm.
func TestKernelReuseAcrossReps(t *testing.T) {
	var kernels, calls atomic.Int64
	probe := alg.Func{
		AlgName: "probe", Class: alg.Randomized,
		RunFunc: func(g *graph.Graph, eng alg.Engine, _ uint64) (alg.Result, error) {
			calls.Add(1)
			if eng.Kernel == nil {
				t.Error("engine should offer a kernel provider")
			} else {
				k1, k2 := eng.Kernel(), eng.Kernel()
				if k1 != k2 {
					t.Error("kernel provider should memoize within the cell")
				}
				kernels.Add(1)
			}
			return alg.Result{Coloring: coloring.New(g.NumNodes())}, nil
		},
	}
	spec := sweep.Spec{
		Name: "kernel", Points: testPoints(6),
		Algorithms: []sweep.AlgAxis{{Alg: probe}},
		Reps:       3,
	}
	if _, err := sweep.Run(spec, sweep.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || kernels.Load() != 3 {
		t.Errorf("calls/kernel-uses = %d/%d, want 3/3", calls.Load(), kernels.Load())
	}
}

// TestGridDeterminismRealAlgorithm runs a real randomized sweep at several
// worker counts and asserts identical aggregates.
func TestGridDeterminismRealAlgorithm(t *testing.T) {
	spec := sweep.Spec{
		Name: "real",
		Points: []sweep.Point{
			{Label: "gnp-a", Build: func() (*graph.Graph, string, error) { return graph.GNPWithAverageDegree(150, 8, 3), "", nil }},
			{Label: "gnp-b", Build: func() (*graph.Graph, string, error) { return graph.GNPWithAverageDegree(200, 10, 4), "", nil }},
		},
		Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet("rand-improved")}},
		Reps:       2,
		Seed:       1,
	}
	var ref *sweep.Grid
	for _, jobs := range []int{1, 2, 8} {
		grid, err := sweep.Run(spec, sweep.Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = grid
			continue
		}
		for i, c := range grid.Cells {
			want := ref.Cells[i]
			for _, m := range []string{sweep.MeasureRounds, sweep.MeasureColors} {
				if c.Mean(m) != want.Mean(m) || c.Max(m) != want.Max(m) {
					t.Errorf("jobs=%d cell %d measure %s diverged", jobs, i, m)
				}
			}
			for v := range c.Sample.Coloring {
				if c.Sample.Coloring[v] != want.Sample.Coloring[v] {
					t.Errorf("jobs=%d cell %d sample coloring diverged", jobs, i)
					break
				}
			}
		}
	}
}

// TestEngineAxisWorkerCountsByteIdentical runs one real simulated spec at
// Workers 1 (inline) and 4 and asserts that the two grids agree byte for byte:
// aggregates, sample colorings and sample metrics. Four workers force a
// multi-worker team even on a single-core machine, so the persistent pool,
// the fused round and the work-stealing tail are all on the grid's path.
func TestEngineAxisWorkerCountsByteIdentical(t *testing.T) {
	spec := sweep.Spec{
		Name: "workers",
		Points: []sweep.Point{
			{Label: "gnp", Build: func() (*graph.Graph, string, error) { return graph.GNPWithAverageDegree(150, 8, 3), "", nil }},
		},
		Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet("rand-improved")}},
		Reps:       2,
		Seed:       1,
	}
	render := func(workers int) string {
		spec.Workers = workers
		grid, err := sweep.Run(spec, sweep.Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := grid.Cell(0, 0)
		var b strings.Builder
		for _, m := range []string{sweep.MeasureRounds, sweep.MeasureColors} {
			a := c.Agg(m)
			fmt.Fprintf(&b, "%s count=%d sum=%v max=%v\n", m, a.Count, a.Sum, a.MaxV)
		}
		fmt.Fprintf(&b, "metrics=%+v\ncoloring=%v\n", c.Sample.Metrics, c.Sample.Coloring)
		return b.String()
	}
	if inline, team := render(1), render(4); inline != team {
		t.Errorf("workers=4 grid differs from workers=1:\n--- workers=4 ---\n%s\n--- workers=1 ---\n%s", team, inline)
	}
}
