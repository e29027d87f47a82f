// Package detcolor implements the deterministic coloring pipeline of
// Appendix B of the paper, generically over an arbitrary conflict graph H
// (anything that can enumerate conflict neighborhoods — a materialized
// *graph.Graph or a streaming *graph.Dist2View):
//
//  1. Linial's algorithm (Theorem B.1): from unique identifiers to an
//     O(Δ(H)²)-coloring in O(log* n) iterations;
//  2. the locally-iterative algorithm (Theorem B.4): from an O(Δ(H)²)-coloring
//     to an O(Δ(H))-coloring, by assigning each input color a distinct degree-1
//     polynomial over a prime field and trying its evaluations phase by phase;
//  3. iterative color reduction (Theorem B.2): from an O(Δ(H))-coloring down to
//     exactly Δ(H)+1 colors by repeatedly recoloring local maxima.
//
// The package is used with H = G² (and an appropriate CONGEST cost model) to
// prove Theorem 1.2, and with H = an induced subgraph of G or G² inside the
// polylogarithmic-time algorithms of Section 3.
//
// The three stages are implemented at the granularity of their phases: each
// phase uses only information a node could have gathered from its H-neighbors,
// and the CONGEST round cost of every phase is accounted through a CostModel
// that encodes the paper's cost statements (e.g. one G²-phase of the locally
// iterative algorithm costs two rounds on G, Theorem B.4).
package detcolor

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
)

// CostModel translates phases of the pipeline into CONGEST rounds on the
// underlying communication graph. The defaults (DefaultCostModelG2, Δ passed
// at construction) follow the accounting in Appendix B.
type CostModel struct {
	// LinialBootstrap is charged once for the first two pipelined Linial
	// iterations (2Δ rounds on G when H = G², Theorem B.1).
	LinialBootstrap int
	// LinialPerIteration is charged for every further Linial iteration (one
	// round each once colors fit in a single message, Theorem B.1).
	LinialPerIteration int
	// TrialPerPhase is charged per locally-iterative phase (two rounds on G,
	// Theorem B.4).
	TrialPerPhase int
	// ReductionSetup is charged once before color reduction (learning all
	// colors in the d2-neighborhood costs Δ rounds, Theorem B.2).
	ReductionSetup int
	// ReductionPerPhase is charged per reduction phase (O(1), Theorem B.2).
	ReductionPerPhase int
}

// DefaultCostModelG2 returns the cost model for running the pipeline on
// H = G² over the communication graph G with maximum degree delta.
func DefaultCostModelG2(delta int) CostModel {
	if delta < 1 {
		delta = 1
	}
	return CostModel{
		LinialBootstrap:    2 * delta,
		LinialPerIteration: 1,
		TrialPerPhase:      2,
		ReductionSetup:     delta,
		ReductionPerPhase:  1,
	}
}

// DefaultCostModelG returns the cost model for running the pipeline directly
// on the communication graph itself (H = G).
func DefaultCostModelG() CostModel {
	return CostModel{
		LinialBootstrap:    2,
		LinialPerIteration: 1,
		TrialPerPhase:      2,
		ReductionSetup:     1,
		ReductionPerPhase:  1,
	}
}

// Scale returns the cost model with every charge multiplied by factor. It is
// used by Lemma 3.5: running an algorithm on an induced subgraph Hᵢ of G²
// costs a multiplicative Δ_h overhead.
func (c CostModel) Scale(factor int) CostModel {
	if factor < 1 {
		factor = 1
	}
	return CostModel{
		LinialBootstrap:    c.LinialBootstrap * factor,
		LinialPerIteration: c.LinialPerIteration * factor,
		TrialPerPhase:      c.TrialPerPhase * factor,
		ReductionSetup:     c.ReductionSetup * factor,
		ReductionPerPhase:  c.ReductionPerPhase * factor,
	}
}

// ConflictGraph is the read-only view of the conflict graph H the pipeline
// needs. *graph.Graph satisfies it directly; *graph.Dist2View satisfies it by
// streaming distance-2 neighborhoods of the communication graph, so running
// the pipeline on H = G² no longer materializes the square.
//
// Neighbors may return a slice that is reused (invalidated) by the next
// Neighbors call on the same value; the pipeline only ever inspects one
// neighborhood at a time.
type ConflictGraph interface {
	NumNodes() int
	MaxDegree() int
	Neighbors(v graph.NodeID) []graph.NodeID
}

// Result reports the outcome of the pipeline together with the intermediate
// palette sizes (useful for experiment E6).
type Result struct {
	Coloring        coloring.Coloring
	PaletteSize     int // final palette: Δ(H)+1
	LinialColors    int // palette size after the Linial stage
	IterativeColors int // palette size (the prime q) after the locally-iterative stage
	LinialRounds    int
	IterativeRounds int
	ReductionRounds int
	Metrics         congest.Metrics
}

// Errors returned by the pipeline.
var (
	ErrIDsNotDistinct = errors.New("detcolor: initial identifiers must be distinct")
	ErrIncomplete     = errors.New("detcolor: internal error, stage left nodes uncolored")
)

// Color deterministically computes a (Δ(H)+1)-coloring of h. ids provides the
// initial distinct identifiers (the model's O(log n)-bit IDs); if nil, node
// indices are used. The cost model translates phases into charged rounds.
func Color(h ConflictGraph, ids []int, cost CostModel) (Result, error) {
	n := h.NumNodes()
	res := Result{}
	if n == 0 {
		res.Coloring = coloring.New(0)
		res.PaletteSize = 1
		return res, nil
	}
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) != n {
		return res, fmt.Errorf("detcolor: got %d ids for %d nodes", len(ids), n)
	}
	maxID, err := checkIDs(ids)
	if err != nil {
		return res, err
	}

	d := h.MaxDegree()
	if d == 0 {
		// No conflicts at all: color 0 everywhere, one palette entry.
		c := coloring.New(n)
		for v := range c {
			c[v] = 0
		}
		res.Coloring = c
		res.PaletteSize = 1
		res.LinialColors = 1
		res.IterativeColors = 1
		return res, nil
	}

	// Stage 1: Linial.
	linialColoring, linialPalette, linialIters, err := linial(h, ids, maxID+1)
	if err != nil {
		return res, err
	}
	res.LinialColors = linialPalette
	res.LinialRounds = cost.LinialBootstrap
	if linialIters > 2 {
		res.LinialRounds += (linialIters - 2) * cost.LinialPerIteration
	}

	// Stage 2: locally-iterative reduction to O(Δ(H)) colors.
	iterColoring, q, phases, err := locallyIterative(h, linialColoring, linialPalette)
	if err != nil {
		return res, err
	}
	res.IterativeColors = q
	res.IterativeRounds = phases * cost.TrialPerPhase

	// Stage 3: color reduction to Δ(H)+1 colors.
	final, redPhases, err := reduceColors(h, iterColoring, d+1)
	if err != nil {
		return res, err
	}
	res.ReductionRounds = cost.ReductionSetup + redPhases*cost.ReductionPerPhase

	res.Coloring = final
	res.PaletteSize = d + 1
	res.Metrics = congest.Metrics{ChargedRounds: res.LinialRounds + res.IterativeRounds + res.ReductionRounds}
	return res, nil
}

// checkIDs returns the largest identifier, or an ErrIDsNotDistinct error if
// an identifier is negative or repeated. IDs may be sparse (drawn from a
// space of size n³, the general O(log n)-bit ID assumption), so repeats are found by an adjacent compare on a sorted
// copy rather than a bitset; an ascending list, the common case, needs no
// copy.
func checkIDs(ids []int) (int, error) {
	maxID, ascending := 0, true
	for i, id := range ids {
		if id < 0 {
			return 0, fmt.Errorf("%w: negative id %d", ErrIDsNotDistinct, id)
		}
		maxID = max(maxID, id)
		ascending = ascending && (i == 0 || id > ids[i-1])
	}
	if ascending {
		return maxID, nil
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return 0, fmt.Errorf("%w: id %d repeated", ErrIDsNotDistinct, sorted[i])
		}
	}
	return maxID, nil
}

// linial iterates Linial's polynomial-based color reduction starting from the
// given distinct identifiers (treated as a proper m-coloring, m = idSpace)
// until the palette stops shrinking. It returns the coloring, the final
// palette size and the number of iterations performed.
//
// One iteration with polynomials of degree deg over F_q maps a proper
// m-coloring to a proper q²-coloring provided q^(deg+1) >= m (so distinct
// colors get distinct polynomials) and q > deg·Δ(H) (so each node finds an
// evaluation point avoiding all neighbors).
func linial(h ConflictGraph, ids []int, idSpace int) (coloring.Coloring, int, int, error) {
	n := h.NumNodes()
	d := h.MaxDegree()
	cur := make(coloring.Coloring, n)
	for v := range cur {
		cur[v] = ids[v]
	}
	palette := idSpace
	iterations := 0
	// coeffs is the flat per-iteration coefficient table: node v's polynomial
	// occupies coeffs[v*k : (v+1)*k], its k = deg+1 base-q digits, constant
	// term first. It is filled once per iteration, so evaluating a neighbor's
	// polynomial allocates nothing.
	var coeffs []int
	for {
		deg, q := linialParams(palette, d)
		newPalette := q * q
		if newPalette >= palette {
			break
		}
		k := deg + 1
		coeffs = slices.Grow(coeffs[:0], n*k)[:n*k]
		for v := 0; v < n; v++ {
			digitsBaseQ(coeffs[v*k:(v+1)*k], cur[v], q)
		}
		next := make(coloring.Coloring, n)
		for v := 0; v < n; v++ {
			cv := coeffs[v*k : (v+1)*k]
			point := -1
			// One neighborhood fetch per node, reused across evaluation
			// points (a streaming ConflictGraph may reuse the slice on the
			// NEXT Neighbors call, so no other fetch may intervene).
			nbrs := h.Neighbors(graph.NodeID(v))
			for i := 0; i < q && point < 0; i++ {
				ok := true
				fv := evalPoly(cv, i, q)
				for _, u := range nbrs {
					if evalPoly(coeffs[int(u)*k:(int(u)+1)*k], i, q) == fv {
						ok = false
						break
					}
				}
				if ok {
					point = i
				}
			}
			if point < 0 {
				// Cannot happen when q > deg·Δ(H); a failure here indicates a
				// parameter-selection bug, so surface it.
				return nil, 0, 0, fmt.Errorf("detcolor: linial found no evaluation point for node %d (q=%d deg=%d)", v, q, deg)
			}
			next[v] = point*q + evalPoly(cv, point, q)
		}
		cur = next
		palette = newPalette
		iterations++
		if iterations > 64 {
			break // defensive: log* n is tiny; this can only trip on a bug
		}
	}
	return cur, palette, iterations, nil
}

// linialParams picks the smallest polynomial degree deg >= 1 and prime q with
// q > deg·d and q^(deg+1) >= m minimizing the resulting palette q².
func linialParams(m, d int) (deg, q int) {
	bestDeg, bestQ := 1, 0
	for cand := 1; cand <= 8; cand++ {
		// Smallest q satisfying both constraints for this degree.
		minQ := cand*d + 1
		root := int(math.Ceil(math.Pow(float64(m), 1/float64(cand+1))))
		if root > minQ {
			minQ = root
		}
		p := nextPrime(minQ)
		// Guard against floating point undershoot of the root.
		for pow(p, cand+1) < m {
			p = nextPrime(p + 1)
		}
		if bestQ == 0 || p*p < bestQ*bestQ {
			bestDeg, bestQ = cand, p
		}
	}
	return bestDeg, bestQ
}

// locallyIterative implements Theorem B.4 generically: given a proper
// coloring of h with inputPalette colors, it produces a proper coloring with
// q = O(Δ(h)) colors in q phases, where q is a prime with q > 2Δ(h) and
// q² >= inputPalette.
func locallyIterative(h ConflictGraph, input coloring.Coloring, inputPalette int) (coloring.Coloring, int, int, error) {
	n := h.NumNodes()
	d := h.MaxDegree()
	minQ := 2*d + 2
	if r := int(math.Ceil(math.Sqrt(float64(inputPalette)))); r > minQ {
		minQ = r
	}
	q := nextPrime(minQ)
	for q*q < inputPalette {
		q = nextPrime(q + 1)
	}

	// Each node's color sequence is the evaluation of the degree-<=1
	// polynomial p_v(x) = a_v + b_v·x with a_v = ψ(v) / q, b_v = ψ(v) mod q.
	as := make([]int, n)
	bs := make([]int, n)
	for v := 0; v < n; v++ {
		if input[v] < 0 || input[v] >= q*q {
			return nil, 0, 0, fmt.Errorf("detcolor: input color %d of node %d outside [0,%d)", input[v], v, q*q)
		}
		as[v] = input[v] / q
		bs[v] = input[v] % q
	}

	out := coloring.New(n)
	phasesUsed := 0
	remaining := n
	// Phase scratch, hoisted out of the loop: the snapshot semantics only
	// need the buffers rewritten, not reallocated, each phase.
	tries := make([]int, n)
	adopt := make([]bool, n)
	for i := 0; i < q && remaining > 0; i++ {
		phasesUsed++
		// Every uncolored node tries p_v(i); a try succeeds iff no H-neighbor
		// already has that color and no uncolored H-neighbor tries it too
		// (simultaneous identical tries both fail, as in the paper). Adoption
		// decisions are evaluated against the snapshot at the start of the
		// phase and applied afterwards.
		for v := 0; v < n; v++ {
			tries[v] = -1
			if out[v] == coloring.Uncolored {
				tries[v] = (as[v] + bs[v]*i) % q
			}
		}
		for v := 0; v < n; v++ {
			adopt[v] = false
			if tries[v] < 0 {
				continue
			}
			blocked := false
			for _, u := range h.Neighbors(graph.NodeID(v)) {
				if out[u] == tries[v] || (out[u] == coloring.Uncolored && tries[u] == tries[v]) {
					blocked = true
					break
				}
			}
			adopt[v] = !blocked
		}
		for v := 0; v < n; v++ {
			if adopt[v] {
				out[v] = tries[v]
				remaining--
			}
		}
	}
	if remaining > 0 {
		return nil, 0, 0, fmt.Errorf("%w: %d nodes left after %d locally-iterative phases", ErrIncomplete, remaining, phasesUsed)
	}
	return out, q, phasesUsed, nil
}

// reduceColors implements Theorem B.2 generically: given a proper coloring of
// h, it reduces the palette to target colors (target must be at least
// Δ(h)+1). In every phase, each node whose color is >= target and is the
// strict maximum among its H-neighborhood recolors itself with the smallest
// free color below target, in ascending node order; the global maximum color
// strictly decreases every phase.
//
// The phases are event-driven. One initial pass counts, for every high node
// v (color >= target), its blockers: the H-neighbors with a strictly larger
// color. A node is a local maximum exactly when its count is zero. Colors
// only ever fall, and to below target, so a blocker u of v stops blocking
// exactly when u recolors, and u's old color was then above out[v]. A
// recoloring node therefore walks the one neighborhood it fetched for its
// pick and decrements those neighbors' counts; the nodes it frees form the
// next phase. A high node's neighborhood is fetched at most twice, instead
// of once per phase, and the phases, their ready sets and the recolor order
// match a snapshot rescan of every high node each phase.
func reduceColors(h ConflictGraph, input coloring.Coloring, target int) (coloring.Coloring, int, error) {
	n := h.NumNodes()
	if target < h.MaxDegree()+1 {
		return nil, 0, fmt.Errorf("detcolor: reduction target %d below Δ+1 = %d", target, h.MaxDegree()+1)
	}
	out := input.Clone()
	maxPhases := out.MaxColor() - target + 2
	if maxPhases < 1 {
		maxPhases = 1
	}
	blockers := make([]int32, n)
	var ready, next []graph.NodeID
	for v := 0; v < n; v++ {
		if out[v] < target {
			continue
		}
		for _, u := range h.Neighbors(graph.NodeID(v)) {
			if out[u] > out[v] {
				blockers[v]++
			}
		}
		if blockers[v] == 0 {
			ready = append(ready, graph.NodeID(v))
		}
	}
	// used is the palette bitset behind every free-color pick, shared across
	// phases; the pick itself is a FirstZero word scan.
	used := bitset.NewFixed(target)
	phases := 0
	for ; phases < maxPhases && len(ready) > 0; phases++ {
		next = next[:0]
		for _, v := range ready {
			nbrs := h.Neighbors(v)
			used.ClearAll()
			for _, u := range nbrs {
				if out[u] >= 0 && out[u] < target {
					used.Set(out[u])
				}
			}
			newColor := used.FirstZero()
			if newColor < 0 {
				return nil, phases, fmt.Errorf("%w: no free color below %d for node %d", ErrIncomplete, target, v)
			}
			old := out[v]
			out[v] = newColor
			for _, u := range nbrs {
				if out[u] >= target && out[u] < old {
					if blockers[u]--; blockers[u] == 0 {
						next = append(next, u)
					}
				}
			}
		}
		slices.Sort(next)
		ready, next = next, ready
	}
	// Final sanity: everything below target.
	for v := 0; v < n; v++ {
		if out[v] >= target || out[v] < 0 {
			return nil, phases, fmt.Errorf("%w: node %d still has color %d (target %d)", ErrIncomplete, v, out[v], target)
		}
	}
	return out, phases, nil
}

// digitsBaseQ writes the len(dst) least-significant base-q digits of x into
// dst, least significant first.
func digitsBaseQ(dst []int, x, q int) {
	for i := range dst {
		dst[i] = x % q
		x /= q
	}
}

// evalPoly evaluates the polynomial with the given coefficients (constant
// term first) at point x over F_q.
func evalPoly(coeffs []int, x, q int) int {
	acc := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}

// pow returns base^exp for small non-negative exponents, saturating at
// math.MaxInt64 / 2 to avoid overflow in comparisons.
func pow(base, exp int) int {
	result := 1
	for i := 0; i < exp; i++ {
		if result > math.MaxInt64/2/base {
			return math.MaxInt64 / 2
		}
		result *= base
	}
	return result
}

// nextPrime returns the smallest prime >= x (and at least 2).
func nextPrime(x int) int {
	if x <= 2 {
		return 2
	}
	for p := x; ; p++ {
		if isPrime(p) {
			return p
		}
	}
}

func isPrime(p int) bool {
	if p < 2 {
		return false
	}
	if p%2 == 0 {
		return p == 2
	}
	for f := 3; f*f <= p; f += 2 {
		if p%f == 0 {
			return false
		}
	}
	return true
}
