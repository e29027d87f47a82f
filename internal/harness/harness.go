// Package harness defines and runs the experiments E1–E13 that reproduce the
// quantitative claims of the paper, plus the million-node scale experiment,
// the churn-tolerance experiment, and the serving-plane load experiment
// (see EXPERIMENTS.md and DESIGN.md §8).
//
// The paper is a theory paper without empirical tables; each experiment
// regenerates a table whose *shape* validates one theorem or lemma: round
// counts scale as the theorem's bound predicts, palettes stay within the
// stated size, and the baselines lose where the paper says they must.
//
// Each experiment is declarative: a sweep.Spec (a grid of workload points ×
// algorithm instances × engines × seed repetitions, executed grid-parallel
// by internal/sweep) plus a small row-shaping closure that turns the
// aggregated cells into a Table. The generated tables are byte-identical for
// every Config.Jobs value, apart from the wall-clock note each one ends with.
package harness

import (
	"fmt"
	"runtime"
	"sort"

	"d2color/internal/alg"
	"d2color/internal/sweep"
)

// Config controls every experiment run.
type Config struct {
	// Quick shrinks the sweeps (used by tests and -short benchmarks).
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Repetitions averages randomized measurements over this many seeds;
	// 0 means 3 (1 in Quick mode).
	Repetitions int
	// Workers is the CONGEST engine's worker count for the message-level
	// simulations inside the experiments; ≤ 1 runs rounds inline. Every
	// worker count is byte-deterministic with every other, so the generated
	// tables are identical either way. It only engages when the grid itself
	// runs sequentially (Jobs == 1): nesting worker teams inside a saturated
	// cell pool would add scheduling overhead without changing a single
	// table cell.
	Workers int
	// Jobs bounds the worker pool that fans the sweep grid's cells
	// (workload × algorithm × engine combinations, each with its repetitions
	// folded in order) over the machine; 0 means GOMAXPROCS, 1 disables the
	// fan-out. Tables are byte-identical for every value, apart from the
	// wall-clock note Render appends.
	Jobs int
}

func (c Config) reps() int {
	if c.Repetitions > 0 {
		return c.Repetitions
	}
	if c.Quick {
		return 1
	}
	return 3
}

// jobs resolves the grid fan-out bound.
func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// engineWorkers resolves the engine worker count of the experiments'
// simulations: the config's Workers when the grid is sequential, inline when
// cells fan out (see Config.Workers).
func (c Config) engineWorkers() int {
	if c.jobs() == 1 {
		return max(c.Workers, 1)
	}
	return 1
}

// engineAxis returns the single-engine axis the experiment specs run on.
func (c Config) engineAxis() []sweep.EngineAxis {
	w := c.engineWorkers()
	return []sweep.EngineAxis{{Name: fmt.Sprintf("workers=%d", w), Engine: alg.Engine{Workers: w}}}
}

// runGrid executes the spec with the config's fan-out and shapes the grid
// into t (typically one row per cell or per point); it stamps the sweep's
// wall clock on the table so rendered sweeps are self-profiling.
func runGrid(cfg Config, spec sweep.Spec, t *Table, shape func(grid *sweep.Grid)) (*Table, error) {
	grid, err := sweep.Run(spec, sweep.Options{Jobs: cfg.jobs()})
	if err != nil {
		return nil, err
	}
	shape(grid)
	t.Elapsed = grid.Elapsed
	return t, nil
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(cfg Config) (*Table, error)
	// Volatile marks experiments whose tables contain inherently
	// machine-dependent columns (wall clock, RSS); byte-identity
	// comparisons must skip them. The workload/measurement columns of a
	// volatile table are still deterministic per seed.
	Volatile bool
}

// All returns the experiments in ID order.
func All() []Experiment {
	exps := []Experiment{
		{
			ID:    "E1",
			Title: "Randomized d2-coloring: rounds vs n and vs Δ",
			Claim: "Theorem 1.1: Δ²+1 colors in O(log Δ · log n) rounds w.h.p.",
			Run:   runE1,
		},
		{
			ID:    "E2",
			Title: "Basic vs improved final phase",
			Claim: "Corollary 2.1 (O(log³ n)) vs Theorem 1.1 (O(log Δ · log n)): the basic finisher grows strictly faster in n",
			Run:   runE2,
		},
		{
			ID:    "E3",
			Title: "Deterministic d2-coloring: rounds vs Δ",
			Claim: "Theorem 1.2: Δ²+1 colors in O(Δ² + log* n) rounds",
			Run:   runE3,
		},
		{
			ID:    "E4",
			Title: "Deterministic (1+ε)Δ² coloring",
			Claim: "Theorem 1.3: (1+ε)Δ² colors in polylog n rounds",
			Run:   runE4,
		},
		{
			ID:    "E5",
			Title: "Local refinement splitting quality",
			Claim: "Theorem 3.2 / Lemma A.5: every constrained vertex keeps at most (1+λ)·deg/2 neighbours of each color",
			Run:   runE5,
		},
		{
			ID:    "E6",
			Title: "Linial stage on G²",
			Claim: "Theorem B.1: O(Δ⁴) colors in O(Δ + log* n) rounds",
			Run:   runE6,
		},
		{
			ID:    "E7",
			Title: "LearnPalette and FinishColoring",
			Claim: "Lemma 2.14 + Lemma 2.15 + Theorem 2.16: |Tv| = O(log n) and FinishColoring completes in O(log n) phases",
			Run:   runE7,
		},
		{
			ID:    "E8",
			Title: "Naive G² simulation vs the paper's algorithm",
			Claim: "Introduction: simulating G² costs a Θ(Δ) factor; the paper's algorithm wins for Δ ≫ log n",
			Run:   runE8,
		},
		{
			ID:    "E9",
			Title: "Slack generation from sparsity",
			Claim: "Proposition 2.5 / Observation 1: ζ-sparse nodes obtain slack Ω(ζ) after the initial random trials",
			Run:   runE9,
		},
		{
			ID:    "E10",
			Title: "Reduce machinery in the dense regime (Moore graphs)",
			Claim: "Section 2.1: colored helpers' queries and proposals colour live nodes when neighbourhoods are Δ²-dense",
			Run:   runE10,
		},
		{
			ID:       "E11",
			Title:    "Million-node scale: throughput and memory of the palette kernels",
			Claim:    "ROADMAP north star: sparse n = 10⁶ workloads fit in commodity memory and color at scale",
			Run:      runE11,
			Volatile: true,
		},
		{
			ID:       "E12",
			Title:    "Churn tolerance: incremental repair vs full rerun under fault epochs",
			Claim:    "ROADMAP robustness item: ball-confined incremental repair heals corruption and churn at a small fraction of full-rerun cost",
			Run:      runE12,
			Volatile: true,
		},
		{
			ID:       "E13",
			Title:    "Coloring as a service: latency and throughput under closed-loop load",
			Claim:    "ROADMAP serving item: warm sessions with batched dispatch serve query-heavy mixes with bounded tails, and batching beats unbatched dispatch where requests coalesce",
			Run:      runE13,
			Volatile: true,
		},
		{
			ID:       "E14",
			Title:    "Chaos: overload shedding, deadline storms, panic quarantine, and graceful drain",
			Claim:    "ROADMAP robustness item: the serving plane degrades predictably — bounded queues shed excess load, deadlines cancel cooperatively with warm kernels reusable byte-identically, panics quarantine without leaks, drains complete against a deadline",
			Run:      runE14,
			Volatile: true,
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
