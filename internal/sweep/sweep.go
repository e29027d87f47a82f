// Package sweep is the declarative, grid-parallel experiment engine. A Spec
// is data: a grid of workload points × algorithm instances × engines, plus a
// repetition count for randomized measurements. Run executes the grid's cells
// over a bounded worker pool and returns the aggregated Grid; callers shape
// the cells into whatever output they need (the harness turns them into
// tables via small row closures).
//
// Determinism: tables generated from a Grid are byte-identical for every
// Options.Jobs value. Cells are independent (each owns its networks, kernels and
// scratch; point graphs are shared read-only, which is safe because *graph.
// Graph is immutable after Build and its lazy edge index is built under a
// sync.Once). Within a cell the repetitions run sequentially in repetition
// order and fold into streaming aggregates whose mean is Sum/Count with the
// additions performed in that order — exactly the fold of a serial loop. The
// scheduler hands out cell indices, each cell's slot is written by exactly
// one worker, and consumers read the cells in grid index order, so no result
// ever depends on scheduling.
package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/trial"
)

// Point is one workload cell of the grid: a deferred graph build plus the
// label the row shaper prints for it. Build runs once per point (not per
// cell); the resulting graph is shared read-only by every cell of the point.
type Point struct {
	// Label describes the workload; a non-empty label returned by Build
	// (typically embedding post-clamp effective generator parameters)
	// overrides it.
	Label string
	// Build produces the graph and optionally a self-describing label.
	Build func() (*graph.Graph, string, error)
}

// AlgAxis is one algorithm instance of the grid's algorithm axis.
type AlgAxis struct {
	Alg alg.Algorithm
	// Reps overrides the Spec's repetition count for this algorithm; 0 means
	// the Spec default. Deterministic algorithms always run once.
	Reps int
}

// EngineAxis is one engine choice of the grid's engine axis (in practice a
// worker count). Every worker count is byte-deterministic with every other,
// so extra axis values change wall-clock measurements only.
type EngineAxis struct {
	Name   string
	Engine alg.Engine
}

// Spec declares a sweep: the full grid plus how to measure each repetition.
// Adding a scenario is a data change — a new Point, AlgAxis or EngineAxis
// value — not a new loop.
type Spec struct {
	// Name identifies the sweep in errors.
	Name string
	// Points is the workload axis (required, at least one).
	Points []Point
	// Algorithms is the algorithm axis (required, at least one).
	Algorithms []AlgAxis
	// Engines is the engine axis; empty means one inline engine (Workers 1).
	Engines []EngineAxis
	// Reps is the default repetition count for randomized algorithms; values
	// below 1 mean 1. Repetition i runs with seed Seed + i·SeedStride.
	Reps int
	// Seed is the base seed handed to the algorithms.
	Seed uint64
	// SeedStride separates repetition seeds; 0 means 101.
	SeedStride uint64
	// Observe records extra per-repetition measures beyond the standard
	// "rounds" and "colors" (e.g. a stage count pulled from Details). It is
	// called once per repetition, possibly concurrently across cells but
	// never concurrently for one cell.
	Observe func(rep int, res *alg.Result, rec *Recorder)
}

// Agg is a streaming aggregate over one measure: count, sum, min, max and a
// Welford variance accumulator. No per-repetition values are retained. The
// mean is Sum/Count with the additions performed in repetition order, so it
// is bit-identical to a serial sum-then-divide fold.
type Agg struct {
	Count    int
	Sum      float64
	MinV     float64
	MaxV     float64
	welfMean float64
	welfM2   float64
}

// Add folds one observation into the aggregate.
func (a *Agg) Add(x float64) {
	if a.Count == 0 {
		a.MinV, a.MaxV = x, x
	} else {
		if x < a.MinV {
			a.MinV = x
		}
		if x > a.MaxV {
			a.MaxV = x
		}
	}
	a.Count++
	a.Sum += x
	d := x - a.welfMean
	a.welfMean += d / float64(a.Count)
	a.welfM2 += d * (x - a.welfMean)
}

// Mean returns Sum/Count (0 for an empty aggregate).
func (a *Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Variance returns the population variance (0 for fewer than 2 samples).
func (a *Agg) Variance() float64 {
	if a.Count < 2 {
		return 0
	}
	return a.welfM2 / float64(a.Count)
}

// Min returns the smallest observation (0 for an empty aggregate).
func (a *Agg) Min() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.MinV
}

// Max returns the largest observation (0 for an empty aggregate).
func (a *Agg) Max() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.MaxV
}

// Recorder collects named measures for one cell.
type Recorder struct {
	aggs map[string]*Agg
}

// Add folds x into the named measure's aggregate.
func (r *Recorder) Add(name string, x float64) {
	if r.aggs == nil {
		r.aggs = make(map[string]*Agg)
	}
	a, ok := r.aggs[name]
	if !ok {
		a = &Agg{}
		r.aggs[name] = a
	}
	a.Add(x)
}

// Cell is one executed grid cell: the cross product of one point, one
// algorithm and one engine, with its repetition aggregates and the first
// repetition's full result.
type Cell struct {
	PointIndex, AlgIndex, EngineIndex int

	// Label is the point's (possibly Build-overridden) label.
	Label string
	// G is the point's graph, shared read-only with the point's other cells.
	G *graph.Graph
	// Alg and Engine identify the cell's axes.
	Alg    alg.Algorithm
	Engine EngineAxis
	// Reps is the number of repetitions that actually ran.
	Reps int
	// Sample is the first repetition's full result (seed = Spec.Seed).
	Sample *alg.Result

	rec Recorder
}

// Agg returns the named measure's aggregate, or nil if never recorded.
func (c *Cell) Agg(name string) *Agg { return c.rec.aggs[name] }

// Mean returns the named measure's mean (0 if never recorded).
func (c *Cell) Mean(name string) float64 {
	if a := c.Agg(name); a != nil {
		return a.Mean()
	}
	return 0
}

// Max returns the named measure's maximum (0 if never recorded).
func (c *Cell) Max(name string) float64 {
	if a := c.Agg(name); a != nil {
		return a.Max()
	}
	return 0
}

// Min returns the named measure's minimum (0 if never recorded).
func (c *Cell) Min(name string) float64 {
	if a := c.Agg(name); a != nil {
		return a.Min()
	}
	return 0
}

// Grid is the executed sweep: every cell in grid index order (point-major,
// then algorithm, then engine).
type Grid struct {
	Spec    *Spec
	Cells   []*Cell
	Elapsed time.Duration
}

// Cell returns the cell at the given axis indices.
func (g *Grid) Cell(point, algo, engine int) *Cell {
	ne := len(g.Spec.Engines)
	if ne == 0 {
		ne = 1
	}
	return g.Cells[(point*len(g.Spec.Algorithms)+algo)*ne+engine]
}

// Options configures the scheduler.
type Options struct {
	// Jobs bounds the worker pool that fans out grid cells; values below 1
	// mean GOMAXPROCS. The generated results are identical for every value.
	Jobs int
}

func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Standard measure names recorded for every repetition.
const (
	MeasureRounds = "rounds" // Metrics.TotalRounds()
	MeasureColors = "colors" // Coloring.NumColorsUsed()
	// MeasureSeconds is the wall-clock duration of the repetition's Run
	// call. Unlike every other measure it is scheduling-dependent: tables
	// that print it (the scale experiment E11) are not byte-identical
	// across runs or Jobs values, so determinism comparisons must exclude
	// such columns (see harness.Experiment.Volatile).
	MeasureSeconds = "seconds"
)

// Run executes the spec's grid. Cells fan out over the worker pool; within a
// cell the repetitions run sequentially, sharing one lazily-built trial
// kernel (alg.Engine.Kernel) so kernel-running algorithms reuse their network
// and flat per-node state across repetitions. Errors are reported for the
// lowest-indexed failing point or cell, so the returned error is also
// independent of scheduling.
func Run(spec Spec, opts Options) (*Grid, error) {
	if len(spec.Points) == 0 {
		return nil, fmt.Errorf("sweep %s: no points", spec.Name)
	}
	if len(spec.Algorithms) == 0 {
		return nil, fmt.Errorf("sweep %s: no algorithms", spec.Name)
	}
	engines := spec.Engines
	if len(engines) == 0 {
		engines = []EngineAxis{{Name: "workers=1"}}
	}
	stride := spec.SeedStride
	if stride == 0 {
		stride = 101
	}
	start := time.Now()
	jobs := opts.jobs()

	// Stage 1: build the point graphs (parallel across points, collected by
	// index so failures are reported deterministically).
	type builtPoint struct {
		g     *graph.Graph
		label string
		err   error
	}
	points := make([]builtPoint, len(spec.Points))
	runIndexed(len(spec.Points), jobs, func(i int) {
		p := spec.Points[i]
		if p.Build == nil {
			points[i] = builtPoint{err: fmt.Errorf("point %d (%s): nil Build", i, p.Label)}
			return
		}
		g, label, err := p.Build()
		if label == "" {
			label = p.Label
		}
		points[i] = builtPoint{g: g, label: label, err: err}
	})
	for i := range points {
		if points[i].err != nil {
			return nil, fmt.Errorf("sweep %s: point %d: %w", spec.Name, i, points[i].err)
		}
	}

	// Stage 2: execute the cells.
	cells := make([]*Cell, len(spec.Points)*len(spec.Algorithms)*len(engines))
	errs := make([]error, len(cells))
	runIndexed(len(cells), jobs, func(idx int) {
		ei := idx % len(engines)
		ai := (idx / len(engines)) % len(spec.Algorithms)
		pi := idx / (len(engines) * len(spec.Algorithms))
		axis := spec.Algorithms[ai]
		c := &Cell{
			PointIndex:  pi,
			AlgIndex:    ai,
			EngineIndex: ei,
			Label:       points[pi].label,
			G:           points[pi].g,
			Alg:         axis.Alg,
			Engine:      engines[ei],
		}
		cells[idx] = c
		reps := axis.Reps
		if reps == 0 {
			reps = spec.Reps
		}
		if reps < 1 || axis.Alg.Determinism() == alg.Deterministic {
			reps = 1
		}
		c.Reps = reps

		// The cell's engine, extended with a memoized per-cell trial kernel:
		// the first kernel-running repetition builds it, the rest reuse it,
		// and the cell closes it on the way out (parking the engine's worker
		// team, if any — cells must not leak pooled goroutines).
		eng := engines[ei].Engine
		var tk *trial.Runner
		eng.Kernel = func() *trial.Runner {
			if tk == nil {
				tk = trial.NewRunner(c.G, false, eng.Workers)
			}
			return tk
		}
		defer func() {
			if tk != nil {
				tk.Close()
			}
		}()

		for rep := 0; rep < reps; rep++ {
			repStart := time.Now()
			res, err := axis.Alg.Run(c.G, eng, spec.Seed+uint64(rep)*stride)
			repElapsed := time.Since(repStart)
			if err != nil {
				errs[idx] = fmt.Errorf("point %d (%s) × %s × %s, rep %d: %w",
					pi, c.Label, axis.Alg.Name(), engines[ei].Name, rep, err)
				return
			}
			c.rec.Add(MeasureRounds, float64(res.Metrics.TotalRounds()))
			c.rec.Add(MeasureColors, float64(res.ColorsUsed()))
			c.rec.Add(MeasureSeconds, repElapsed.Seconds())
			if spec.Observe != nil {
				spec.Observe(rep, &res, &c.rec)
			}
			if rep == 0 {
				r := res
				c.Sample = &r
			}
		}
	})
	for idx := range errs {
		if errs[idx] != nil {
			return nil, fmt.Errorf("sweep %s: %w", spec.Name, errs[idx])
		}
	}

	return &Grid{Spec: &spec, Cells: cells, Elapsed: time.Since(start)}, nil
}

// runIndexed executes fn(0..n-1) over a pool of at most jobs workers pulling
// indices from a shared atomic counter.
func runIndexed(n, jobs int, fn func(i int)) {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Stddev is a convenience for callers that report spread: the square root of
// the aggregate's population variance.
func Stddev(a *Agg) float64 {
	if a == nil {
		return 0
	}
	return math.Sqrt(a.Variance())
}
