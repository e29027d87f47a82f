package sweep_test

import (
	"errors"
	"fmt"
	"math"
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
		Engines: []sweep.EngineAxis{{Name: "e0"}, {Name: "e1"}},
		Reps:    3,
		Seed:    10,
	}
	grid, err := sweep.Run(spec, sweep.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 3*2*2 {
		t.Fatalf("cells = %d, want 12", len(grid.Cells))
	}
	if got := runs.Load(); got != 12*3 {
		t.Errorf("runs = %d, want 36 (3 reps per cell)", got)
	}
	for pi := 0; pi < 3; pi++ {
		for ai := 0; ai < 2; ai++ {
			for ei := 0; ei < 2; ei++ {
				c := grid.Cell(pi, ai, ei)
				if c.PointIndex != pi || c.AlgIndex != ai || c.EngineIndex != ei {
					t.Fatalf("Cell(%d,%d,%d) returned indices (%d,%d,%d)", pi, ai, ei, c.PointIndex, c.AlgIndex, c.EngineIndex)
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
	if grid.Cell(0, 0, 0).Reps != 1 {
		t.Errorf("cell Reps = %d, want 1", grid.Cell(0, 0, 0).Reps)
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
	want := []uint64{5, 5 + 101, 5 + 202}
	for i, s := range seeds {
		if s != want[i] {
			t.Errorf("rep %d seed = %d, want %d (default stride 101)", i, s, want[i])
		}
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
	if a.Min() != 4 || a.Max() != 16 {
		t.Errorf("min/max = %g/%g", a.Min(), a.Max())
	}
	// Population variance of {4,7,13,16} is 22.5.
	if math.Abs(a.Variance()-22.5) > 1e-9 {
		t.Errorf("variance = %g, want 22.5", a.Variance())
	}
	var zero sweep.Agg
	if zero.Mean() != 0 || zero.Min() != 0 || zero.Max() != 0 || zero.Variance() != 0 {
		t.Error("empty aggregate accessors should be 0")
	}
	if sweep.Stddev(&a) != math.Sqrt(a.Variance()) || sweep.Stddev(nil) != 0 {
		t.Error("Stddev wrong")
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
				if c.Mean(m) != want.Mean(m) || c.Max(m) != want.Max(m) || c.Min(m) != want.Min(m) {
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

// TestEngineAxisWorkerCountsByteIdentical runs a real simulated sweep over an
// engine axis with genuine worker counts — not just axis labels — and
// asserts that every worker count produces aggregates and colorings identical
// to the inline reference (workers=1). The counts above 1 force multi-worker
// teams even on single-core machines, so the persistent pool, the fused round
// and the work-stealing tail are all on the measured path of the grid engine.
func TestEngineAxisWorkerCountsByteIdentical(t *testing.T) {
	spec := sweep.Spec{
		Name: "engine-axis-workers",
		Points: []sweep.Point{
			{Label: "gnp", Build: func() (*graph.Graph, string, error) { return graph.GNPWithAverageDegree(150, 8, 3), "", nil }},
		},
		Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet("rand-improved")}},
		Engines: []sweep.EngineAxis{
			{Name: "workers=1", Engine: alg.Engine{Workers: 1}},
			{Name: "workers=2", Engine: alg.Engine{Workers: 2}},
			{Name: "workers=3", Engine: alg.Engine{Workers: 3}},
			{Name: "workers=4", Engine: alg.Engine{Workers: 4}},
			{Name: "workers=16", Engine: alg.Engine{Workers: 16}},
		},
		Reps: 2,
		Seed: 1,
	}
	grid, err := sweep.Run(spec, sweep.Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := grid.Cell(0, 0, 0)
	for ei := 1; ei < len(spec.Engines); ei++ {
		c := grid.Cell(0, 0, ei)
		for _, m := range []string{sweep.MeasureRounds, sweep.MeasureColors} {
			if c.Mean(m) != ref.Mean(m) || c.Max(m) != ref.Max(m) || c.Min(m) != ref.Min(m) {
				t.Errorf("engine %s measure %s diverged from workers=1", spec.Engines[ei].Name, m)
			}
		}
		for v := range c.Sample.Coloring {
			if c.Sample.Coloring[v] != ref.Sample.Coloring[v] {
				t.Errorf("engine %s sample coloring diverged at node %d", spec.Engines[ei].Name, v)
				break
			}
		}
		if c.Sample.Metrics != ref.Sample.Metrics {
			t.Errorf("engine %s sample metrics diverged: %v vs %v", spec.Engines[ei].Name, c.Sample.Metrics, ref.Sample.Metrics)
		}
	}
}
