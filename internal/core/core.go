// Package core is the public-facing façade of the library: a single entry
// point that runs any of the paper's distance-2 coloring algorithms (or one
// of the baselines) on a graph and returns a verified coloring together with
// the CONGEST cost metrics.
//
// It mirrors step 0 of Algorithm d2-Color: callers that just want "the
// paper's algorithm" use AlgorithmAuto, which picks the randomized improved
// algorithm for high-degree graphs and the deterministic one when
// Δ² = O(log n).
package core

import (
	"errors"
	"fmt"
	"sort"

	"d2color/internal/alg"
	"d2color/internal/baseline"
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/detd2"
	"d2color/internal/graph"
	"d2color/internal/polylogd2"
	"d2color/internal/randd2"
	"d2color/internal/verify"
)

// Algorithm identifies one of the implemented algorithms.
type Algorithm string

// The implemented algorithms. The first four are the paper's contributions;
// the remaining ones are the baselines used by the experiments.
const (
	// AlgorithmAuto applies the paper's dispatch rule (step 0 of d2-Color).
	AlgorithmAuto Algorithm = "auto"
	// AlgorithmRandomizedImproved is Improved-d2-Color (Theorem 1.1):
	// Δ²+1 colors in O(log Δ · log n) rounds, w.h.p.
	AlgorithmRandomizedImproved Algorithm = "rand-improved"
	// AlgorithmRandomizedBasic is d2-Color with the basic final phase
	// (Corollary 2.1): Δ²+1 colors in O(log³ n) rounds, w.h.p.
	AlgorithmRandomizedBasic Algorithm = "rand-basic"
	// AlgorithmDeterministic is Theorem 1.2: Δ²+1 colors in O(Δ² + log* n)
	// rounds, deterministically.
	AlgorithmDeterministic Algorithm = "deterministic"
	// AlgorithmPolylog is Theorem 1.3: (1+ε)Δ² colors in polylog n rounds,
	// deterministically.
	AlgorithmPolylog Algorithm = "polylog"
	// AlgorithmGreedy is the sequential greedy baseline (no communication).
	AlgorithmGreedy Algorithm = "greedy"
	// AlgorithmNaive simulates the trivial algorithm on G² at Θ(Δ) rounds per
	// simulated round (the strawman of the introduction).
	AlgorithmNaive Algorithm = "naive"
	// AlgorithmRelaxed is the whole-palette random-trial algorithm with
	// (1+ε)Δ² colors (Section 2.1).
	AlgorithmRelaxed Algorithm = "relaxed"
)

// Algorithms returns all algorithm identifiers in a stable order.
func Algorithms() []Algorithm {
	out := []Algorithm{
		AlgorithmAuto, AlgorithmRandomizedImproved, AlgorithmRandomizedBasic,
		AlgorithmDeterministic, AlgorithmPolylog,
		AlgorithmGreedy, AlgorithmNaive, AlgorithmRelaxed,
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Options configures Solve.
type Options struct {
	// Algorithm selects the algorithm; empty means AlgorithmAuto.
	Algorithm Algorithm
	// Seed drives all randomness (and ID assignment).
	Seed uint64
	// Epsilon is the ε used by AlgorithmPolylog and AlgorithmRelaxed;
	// 0 means 1.
	Epsilon float64
	// Workers is the CONGEST engine's worker count for the message-level
	// simulations: ≤ 1 runs rounds inline, k > 1 on a team of k goroutines.
	// Every worker count is byte-deterministic with every other, so this
	// changes wall-clock time, never results. Algorithms that charge their
	// rounds analytically instead of simulating them (polylog, greedy) are
	// unaffected.
	Workers int
	// RandParams overrides the randomized algorithm's constants (nil means
	// the scaled defaults).
	RandParams *randd2.Params
	// PolylogOptions overrides the Section-3 options (Epsilon is taken from
	// the field above when this is nil).
	PolylogOptions *polylogd2.Options
	// SkipVerify disables the final validity check.
	SkipVerify bool
}

// Result is the outcome of Solve.
type Result struct {
	// Algorithm is the algorithm that actually ran (Auto is resolved).
	Algorithm Algorithm
	// Coloring assigns a color to every node.
	Coloring coloring.Coloring
	// PaletteSize is the palette bound the algorithm guarantees
	// (Δ²+1 for the exact algorithms, (1+ε)Δ² for the relaxed ones).
	PaletteSize int
	// ColorsUsed is the number of distinct colors actually used.
	ColorsUsed int
	// Metrics is the CONGEST cost of the run.
	Metrics congest.Metrics
	// Details carries algorithm-specific observability (may be nil): one of
	// *randd2.Result, *detd2.Result, *polylogd2.Result or *baseline.Result.
	Details any
}

// ErrUnknownAlgorithm is returned for unrecognized algorithm identifiers.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Solve runs the selected algorithm on g.
func Solve(g *graph.Graph, opts Options) (Result, error) {
	if g == nil {
		return Result{}, errors.New("core: nil graph")
	}
	algo := opts.Algorithm
	if algo == "" {
		algo = AlgorithmAuto
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 1
	}
	if algo == AlgorithmAuto {
		// Step 0 of d2-Color: small Δ² is handled deterministically; the
		// randd2 package applies the same rule internally, so Auto simply
		// resolves to the improved randomized algorithm.
		algo = AlgorithmRandomizedImproved
	}

	// Build the algorithm instance: parameterized adapters for the known
	// names (with verification deferred to the single check below), the
	// registry for anything registered beyond core's own set.
	var instance alg.Algorithm
	runSeed := opts.Seed
	switch algo {
	case AlgorithmRandomizedImproved, AlgorithmRandomizedBasic:
		variant := randd2.VariantImproved
		if algo == AlgorithmRandomizedBasic {
			variant = randd2.VariantBasic
		}
		instance = randd2.Algorithm(randd2.Options{Variant: variant, Params: opts.RandParams, SkipVerify: true})
	case AlgorithmDeterministic:
		instance = detd2.Algorithm(detd2.Options{SkipVerify: true})
	case AlgorithmPolylog:
		popts := polylogd2.Options{Epsilon: eps, SkipVerify: true}
		if opts.PolylogOptions != nil {
			popts = *opts.PolylogOptions
			if popts.Epsilon <= 0 {
				popts.Epsilon = eps
			}
			popts.SkipVerify = true
			// An explicit PolylogOptions owns the whole option surface,
			// including the seed of the randomized splitting variant; the
			// adapter would otherwise overwrite it with opts.Seed.
			runSeed = popts.Seed
		}
		instance = polylogd2.Algorithm(popts)
	case AlgorithmGreedy:
		instance = baseline.GreedyAlgorithm()
	case AlgorithmNaive:
		instance = baseline.NaiveAlgorithm(baseline.Options{})
	case AlgorithmRelaxed:
		instance = baseline.RelaxedAlgorithm(baseline.Options{Epsilon: eps})
	default:
		registered, ok := alg.Get(string(algo))
		if !ok {
			return Result{}, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownAlgorithm, algo, alg.Names())
		}
		instance = registered
	}

	r, err := instance.Run(g, alg.Engine{Workers: opts.Workers}, runSeed)
	if err != nil {
		return Result{}, fmt.Errorf("core: %s: %w", algo, err)
	}
	res := Result{
		Algorithm:   algo,
		Coloring:    r.Coloring,
		PaletteSize: r.PaletteSize,
		Metrics:     r.Metrics,
		Details:     r.Details,
	}

	res.ColorsUsed = res.Coloring.NumColorsUsed()
	// Coloring-shaped registry entries (MIS membership) are not distance-2
	// colorings; applying CheckD2 to them would reject correct results.
	if !opts.SkipVerify && g.NumNodes() > 0 && alg.IsD2Coloring(instance) {
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			return Result{}, fmt.Errorf("core: %s produced an invalid coloring: %w", algo, rep.Error())
		}
	}
	return res, nil
}
