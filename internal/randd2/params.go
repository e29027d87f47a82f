// Package randd2 implements the randomized distance-2 coloring algorithms of
// Section 2 of the paper:
//
//   - Algorithm d2-Color (Section 2.2) with the basic final phase, giving the
//     O(log³ n)-round bound of Corollary 2.1, and
//   - Algorithm Improved-d2-Color (Section 2.6) with LearnPalette +
//     FinishColoring, giving the O(log Δ · log n)-round bound of Theorem 1.1.
//
// Both use Δ²+1 colors. The structure follows the paper exactly:
//
//  0. if Δ² < c2·log n, fall back to the deterministic algorithm (Thm 1.2);
//  1. form the similarity graphs H = H_{2/3} and Ĥ = H_{5/6};
//  2. run c0·log n phases of whole-palette random color trials;
//  3. for τ = c1·Δ²; τ > c2·log n; τ /= 2: Reduce(2τ, τ);
//  4. finish: either Reduce(c2·log n, 1) (basic) or LearnPalette +
//     FinishColoring (improved).
//
// Fidelity: color trials of step 2 are simulated message-by-message on the
// CONGEST simulator (package trial); the similarity-graph construction,
// Reduce phases, LearnPalette and FinishColoring are executed at phase
// granularity with node-local information only, and their CONGEST rounds are
// charged according to the cost statements in the paper (each charge cites
// its source). The paper's probability constants are far outside the regime
// reachable on test-size graphs (e.g. query probability 1/(6000·φ)); Params
// exposes them, Default() scales them so the asymptotic behaviour is visible
// at n ≤ 10⁵, and Paper() preserves the published values.
package randd2

import (
	"errors"
	"fmt"
	"math"
)

// Params collects every tunable constant of Section 2. Field comments name
// the constant used in the paper.
type Params struct {
	// C0 — Step 2 runs ceil(C0·log₂ n) whole-palette trial phases
	// (paper: c0 ≤ 3e/c1).
	C0 float64
	// C1 — the main loop starts at leeway threshold τ = C1·Δ²
	// (paper: c1 ≤ 1/(402e³)).
	C1 float64
	// C2 — the main loop stops when τ ≤ C2·log₂ n, and the whole randomized
	// algorithm defers to the deterministic one when Δ² < C2·log₂ n
	// (paper: c2 "sufficiently large for concentration").
	C2 float64
	// C3 — Reduce(φ, τ) runs ρ = ceil(C3·(φ/τ)²·log₂ n) phases
	// (paper: c3 = 32/c7).
	C3 float64
	// C10 — similarity sampling probability p = C10·log₂ n / Δ² (paper: c10).
	C10 float64
	// ActiveDenominator — a live node is active in a Reduce phase with
	// probability τ/(ActiveDenominator·φ) (paper: 8).
	ActiveDenominator float64
	// QueryDenominator — an active live node sends a query across a given
	// 2-path with probability 1/(QueryDenominator·φ) (paper: 6000).
	QueryDenominator float64
	// RoundsPerReducePhase — CONGEST rounds charged per Reduce-Phase
	// (paper, Section 2.2 "Complexity": 23).
	RoundsPerReducePhase int
	// SimilarityH and SimilarityHHat are the common-neighbour fractions
	// defining H = H_{2/3} and Ĥ = H_{5/6} (paper: 2/3 and 5/6).
	SimilarityH    float64
	SimilarityHHat float64
	// ExactSimilarity computes the similarity graphs from exact common
	// d2-neighbour counts instead of the sampling protocol of Section 2.3.
	// The sampling protocol is the CONGEST-feasible construction; the exact
	// variant is what it approximates (Theorem 2.2) and is cheaper to
	// simulate on very dense graphs.
	ExactSimilarity bool
}

// Default returns parameters scaled so that every stage of the algorithm is
// exercised on graphs of the size used in tests and experiments
// (n ≤ ~10⁵, Δ ≤ ~64). The structure and all inequalities of the paper are
// preserved; only the absolute constants differ (see DESIGN.md §2).
func Default() Params {
	return Params{
		C0:                   3,
		C1:                   0.5,
		C2:                   2,
		C3:                   1,
		C10:                  3,
		ActiveDenominator:    4,
		QueryDenominator:     4,
		RoundsPerReducePhase: 23,
		SimilarityH:          2.0 / 3.0,
		SimilarityHHat:       5.0 / 6.0,
	}
}

// Paper returns the constants exactly as stated in the paper. They are
// astronomically conservative: with n and Δ reachable in a simulation, the
// Reduce machinery degenerates (query probabilities round to zero), so these
// values are used only by dedicated tests documenting that behaviour.
func Paper() Params {
	c1 := 1.0 / (402 * math.E * math.E * math.E)
	return Params{
		C0:                   3 * math.E / c1,
		C1:                   c1,
		C2:                   16,
		C3:                   32 / 1e-6, // c3 = 32/c7 with c7 the (tiny) progress constant of Lemma 2.12
		C10:                  64,
		ActiveDenominator:    8,
		QueryDenominator:     6000,
		RoundsPerReducePhase: 23,
		SimilarityH:          2.0 / 3.0,
		SimilarityHHat:       5.0 / 6.0,
	}
}

// Errors returned by parameter validation.
var ErrBadParams = errors.New("randd2: invalid parameters")

// Validate checks that the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.C0 <= 0, p.C1 <= 0, p.C2 <= 0, p.C3 <= 0, p.C10 <= 0:
		return fmt.Errorf("%w: multipliers must be positive: %+v", ErrBadParams, p)
	case p.C1 > 1:
		return fmt.Errorf("%w: C1 must be at most 1 (leeway cannot exceed the palette)", ErrBadParams)
	case p.ActiveDenominator < 1, p.QueryDenominator < 1:
		return fmt.Errorf("%w: denominators must be at least 1", ErrBadParams)
	case p.RoundsPerReducePhase < 1:
		return fmt.Errorf("%w: RoundsPerReducePhase must be at least 1", ErrBadParams)
	case p.SimilarityH <= 0 || p.SimilarityH >= 1 || p.SimilarityHHat <= 0 || p.SimilarityHHat >= 1:
		return fmt.Errorf("%w: similarity thresholds must be in (0,1)", ErrBadParams)
	case p.SimilarityHHat < p.SimilarityH:
		return fmt.Errorf("%w: Ĥ threshold must be at least the H threshold", ErrBadParams)
	}
	return nil
}

// log2 returns log₂(x), at least 1, so that round counts never collapse to
// zero on tiny inputs.
func log2(x int) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(float64(x))
}
