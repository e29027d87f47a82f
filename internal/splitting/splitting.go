// Package splitting implements the local refinement splitting problem of
// Definition 3.1 and its solutions:
//
//   - RandomizedSplit: the zero-round algorithm in which every vertex picks
//     red or blue with a private fair coin (fully independent);
//   - LimitedIndependenceSplit: the same algorithm with Θ(log n)-wise
//     independent coins drawn from one short seed per run (Lemma A.5 /
//     Theorem A.6), implemented with the k-wise independent hash family of
//     internal/kwise;
//   - DeterministicSplit: the derandomization of Theorem 3.2 — a network
//     decomposition of G² is computed, and the color choices of each cluster
//     are fixed by the method of conditional expectation, cluster colors
//     processed one after the other and same-colored clusters in parallel.
//
// Derandomization fidelity: the paper fixes the bits of one shared random
// seed per cluster; we fix the per-vertex coins of the cluster directly, with
// the exact conditional failure probability (a binomial tail) as the
// pessimistic estimator. The two are equivalent derandomizations of the same
// zero-round algorithm; the seed indirection in the paper exists to keep the
// CONGEST messages short, a cost we account for in the charged rounds (see
// DeterministicSplit). The k-wise-seed machinery itself is exercised by
// LimitedIndependenceSplit.
package splitting

import (
	"errors"
	"fmt"
	"math"

	"d2color/internal/graph"
	"d2color/internal/kwise"
	"d2color/internal/netdecomp"
	"d2color/internal/rng"
)

// Options tunes the splitting.
type Options struct {
	// Lambda is the balance parameter λ of Definition 3.1.
	Lambda float64
	// ThresholdCoeff is the constant in the degree threshold
	// degᵢ(v) ≥ ThresholdCoeff·log n / λ²; the paper uses 12. Experiments may
	// lower it to make the guarantee bind on laptop-scale graphs.
	ThresholdCoeff float64
	// Seed drives the randomized variants.
	Seed uint64
	// Independence is the k of the k-wise independent coins used by
	// LimitedIndependenceSplit; 0 means ⌈10·log₂ n⌉ as in Lemma A.5.
	Independence int
}

// Result is a red/blue splitting together with its quality and cost.
type Result struct {
	// Red[v] is true when v is colored red.
	Red []bool
	// Violations counts pairs (v, i) with degᵢ(v) above the threshold and
	// more than (1+λ)·degᵢ(v)/2 neighbours of one color in Vᵢ.
	Violations int
	// Constrained counts pairs (v, i) whose degree is above the threshold
	// (i.e. the pairs the guarantee applies to).
	Constrained int
	// MaxImbalance is the maximum over constrained pairs of
	// max(red, blue)/degᵢ(v) − 1/2 (0 when no pair is constrained).
	MaxImbalance float64
	// Rounds is the CONGEST round charge (0 for the zero-round randomized
	// variants, decomposition + aggregation for the deterministic one).
	Rounds int
	// DecompositionColors reports the number of cluster colors used by the
	// deterministic variant (0 otherwise).
	DecompositionColors int
}

// Errors.
var (
	ErrBadLambda    = errors.New("splitting: lambda must be in (0, 1]")
	ErrBadPartition = errors.New("splitting: partition labels must cover every node")
)

func (o Options) normalize(n int) (Options, error) {
	if o.Lambda <= 0 || o.Lambda > 1 {
		return o, fmt.Errorf("%w (got %g)", ErrBadLambda, o.Lambda)
	}
	if o.ThresholdCoeff <= 0 {
		o.ThresholdCoeff = 12
	}
	if o.Independence <= 0 {
		o.Independence = int(math.Ceil(10 * math.Log2(float64(maxInt(n, 2)))))
	}
	return o, nil
}

// threshold returns the degree threshold below which a (v, i) pair is
// unconstrained.
func threshold(o Options, n int) float64 {
	return o.ThresholdCoeff * math.Log2(float64(maxInt(n, 2))) / (o.Lambda * o.Lambda)
}

// validatePartition checks that parts assigns a non-negative label to every
// node and returns the number of parts.
func validatePartition(g *graph.Graph, parts []int) (int, error) {
	if len(parts) != g.NumNodes() {
		return 0, fmt.Errorf("%w: %d labels for %d nodes", ErrBadPartition, len(parts), g.NumNodes())
	}
	p := 0
	for v, lbl := range parts {
		if lbl < 0 {
			return 0, fmt.Errorf("%w: node %d has negative label", ErrBadPartition, v)
		}
		if lbl+1 > p {
			p = lbl + 1
		}
	}
	return p, nil
}

// RandomizedSplit colors every vertex red or blue with an independent fair
// coin (the zero-round algorithm the paper derandomizes).
func RandomizedSplit(g *graph.Graph, parts []int, opts Options) (Result, error) {
	opts, err := opts.normalize(g.NumNodes())
	if err != nil {
		return Result{}, err
	}
	if _, err := validatePartition(g, parts); err != nil {
		return Result{}, err
	}
	red := make([]bool, g.NumNodes())
	src := rng.New(opts.Seed)
	for v := range red {
		red[v] = src.Bool()
	}
	return evaluate(g, parts, red, opts, 0, 0), nil
}

// LimitedIndependenceSplit colors every vertex with a coin that is k-wise
// independent across vertices, derived from a single short seed via the
// polynomial hash family of Theorem A.6 (the vertex's key is its identifier).
func LimitedIndependenceSplit(g *graph.Graph, parts []int, opts Options) (Result, error) {
	opts, err := opts.normalize(g.NumNodes())
	if err != nil {
		return Result{}, err
	}
	if _, err := validatePartition(g, parts); err != nil {
		return Result{}, err
	}
	fam, err := kwise.NewFamily(opts.Independence, 2)
	if err != nil {
		return Result{}, fmt.Errorf("splitting: %w", err)
	}
	h := fam.Draw(rng.New(opts.Seed))
	red := make([]bool, g.NumNodes())
	for v := range red {
		red[v] = h.Bit(uint64(v)) == 1
	}
	return evaluate(g, parts, red, opts, 0, 0), nil
}

// DeterministicSplit implements Theorem 3.2: it computes a network
// decomposition of G² and fixes the vertex colors cluster by cluster with the
// method of conditional expectation, producing a λ-local refinement splitting
// with zero violations whenever the initial expected number of violations is
// below one (which the threshold of Definition 3.1 guarantees).
//
// Round charge: the decomposition's charge plus, per cluster color class,
// seed-length · aggregation-diameter rounds (the paper's accounting in the
// proof of Theorem 3.2: O(log n) color classes × O(log² n) seed bits ×
// O(log⁴ n) aggregation).
func DeterministicSplit(g *graph.Graph, parts []int, opts Options) (Result, error) {
	n := g.NumNodes()
	opts, err := opts.normalize(n)
	if err != nil {
		return Result{}, err
	}
	numParts, err := validatePartition(g, parts)
	if err != nil {
		return Result{}, err
	}
	_ = numParts

	decomp := netdecomp.Compute(g, 2)
	thr := threshold(opts, n)

	// assigned[v]: -1 unknown, 0 blue, 1 red.
	assigned := make([]int8, n)
	for v := range assigned {
		assigned[v] = -1
	}

	// Process cluster colors in increasing order; clusters with the same
	// color are at distance > 2 in G, so no vertex's constraint involves two
	// of them and they can be fixed independently (in parallel in the
	// distributed implementation).
	order := make([][]int, decomp.NumColors)
	for c := range decomp.Clusters {
		col := decomp.ColorOf[c]
		order[col] = append(order[col], c)
	}
	est := newEstimator(g, parts, thr, opts.Lambda, opts.Seed)
	for _, clusters := range order {
		for _, c := range clusters {
			est.fixCluster(decomp.Clusters[c], assigned)
		}
	}

	red := make([]bool, n)
	for v := range red {
		red[v] = assigned[v] == 1
	}

	logN := math.Ceil(math.Log2(float64(maxInt(n, 2))))
	seedBits := int(math.Ceil(10 * logN * logN))
	aggregation := 2*decomp.MaxRadius + int(logN) + 1
	rounds := decomp.Rounds + decomp.NumColors*seedBits*aggregation

	return evaluate(g, parts, red, opts, rounds, decomp.NumColors), nil
}

// partCounts tracks, for one vertex u and one part i, how many of u's
// Vᵢ-neighbours are already red, already blue, or still unassigned.
type partCounts struct{ red, blue, free, deg int }

// estimator maintains the pessimistic estimator of the conditional-expectation
// derandomization incrementally: for every vertex u and part i it keeps the
// red/blue/unassigned counts among u's Vᵢ-neighbours, and it caches binomial
// tail tables so that each query is O(1).
//
// The estimator for a constrained pair (u, i) is
//
//	P[redᵢ(u) + Bin(freeᵢ(u), ½) > (1+λ)·degᵢ(u)/2]
//	  + P[blueᵢ(u) + Bin(freeᵢ(u), ½) > (1+λ)·degᵢ(u)/2],
//
// the exact conditional failure probability of the two one-sided events
// (their sum upper-bounds the failure indicator, so the greedy argmin choice
// keeps the total non-increasing — the standard pessimistic-estimator
// argument behind Theorem 3.2).
type estimator struct {
	g      *graph.Graph
	parts  []int
	thr    float64
	lambda float64
	salt   uint64
	counts []map[int]*partCounts
	tails  map[int][]float64 // m -> suffix array s with s[j] = P[Bin(m,½) >= j]
}

func newEstimator(g *graph.Graph, parts []int, thr, lambda float64, salt uint64) *estimator {
	n := g.NumNodes()
	e := &estimator{
		g:      g,
		parts:  parts,
		thr:    thr,
		lambda: lambda,
		salt:   salt,
		counts: make([]map[int]*partCounts, n),
		tails:  make(map[int][]float64),
	}
	for u := 0; u < n; u++ {
		m := make(map[int]*partCounts)
		for _, w := range g.Neighbors(graph.NodeID(u)) {
			pc := m[parts[w]]
			if pc == nil {
				pc = &partCounts{}
				m[parts[w]] = pc
			}
			pc.deg++
			pc.free++
		}
		e.counts[u] = m
	}
	return e
}

// fixCluster fixes the colors of one cluster's vertices greedily, in node
// order, choosing for each vertex the color that minimizes the estimator.
// Only the constraints of the vertex's neighbours (in the part containing the
// vertex) depend on its choice, so the comparison is local.
func (e *estimator) fixCluster(cluster []graph.NodeID, assigned []int8) {
	for _, v := range cluster {
		if assigned[v] != -1 {
			continue
		}
		part := e.parts[v]
		costRed, costBlue := 0.0, 0.0
		for _, u := range e.g.Neighbors(v) {
			pc := e.counts[u][part]
			if pc == nil || float64(pc.deg) < e.thr {
				continue
			}
			costRed += e.pairFailure(pc.red+1, pc.blue, pc.free-1, pc.deg)
			costBlue += e.pairFailure(pc.red, pc.blue+1, pc.free-1, pc.deg)
		}
		var color int8
		switch {
		case costRed < costBlue:
			color = 1
		case costBlue < costRed:
			color = 0
		default:
			// Tie (in particular when no constraint of v's neighbours binds):
			// the vertex behaves like its seed coin. Mixing the identifier
			// with the run's salt keeps the choice deterministic given the
			// inputs yet balanced and different across invocations, which is
			// what the shared-seed coins of the paper's construction give
			// unconstrained vertices.
			color = int8(mixParity(uint64(v)*0x9E3779B97F4A7C15 ^ e.salt))
		}
		assigned[v] = color
		for _, u := range e.g.Neighbors(v) {
			pc := e.counts[u][part]
			pc.free--
			if color == 1 {
				pc.red++
			} else {
				pc.blue++
			}
		}
	}
}

// pairFailure returns the estimator value for one (vertex, part) constraint
// with the given counts.
func (e *estimator) pairFailure(red, blue, free, deg int) float64 {
	limit := (1 + e.lambda) * float64(deg) / 2
	return e.tailAbove(free, limit-float64(red)) + e.tailAbove(free, limit-float64(blue))
}

// tailAbove returns P[Bin(m, ½) > t].
func (e *estimator) tailAbove(m int, t float64) float64 {
	if m < 0 {
		m = 0
	}
	if t < 0 {
		return 1
	}
	if float64(m) <= t {
		return 0
	}
	suffix, ok := e.tails[m]
	if !ok {
		suffix = binomialSuffix(m)
		e.tails[m] = suffix
	}
	j := int(math.Floor(t)) + 1
	if j < 0 {
		j = 0
	}
	if j > m {
		return 0
	}
	return suffix[j]
}

// mixParity returns a balanced deterministic bit derived from x (SplitMix64
// finalizer parity).
func mixParity(x uint64) int {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x & 1)
}

// binomialSuffix returns s with s[j] = P[Bin(m, ½) >= j] for j in 0..m.
func binomialSuffix(m int) []float64 {
	pmf := make([]float64, m+1)
	// pmf[0] = 2^-m; iterate pmf[j+1] = pmf[j]·(m-j)/(j+1).
	pmf[0] = math.Exp(float64(m) * math.Log(0.5))
	for j := 0; j < m; j++ {
		pmf[j+1] = pmf[j] * float64(m-j) / float64(j+1)
	}
	suffix := make([]float64, m+2)
	for j := m; j >= 0; j-- {
		suffix[j] = suffix[j+1] + pmf[j]
	}
	if suffix[0] > 1 {
		suffix[0] = 1
	}
	return suffix[:m+1]
}

// evaluate computes the quality statistics of a splitting.
func evaluate(g *graph.Graph, parts []int, red []bool, opts Options, rounds, decompColors int) Result {
	n := g.NumNodes()
	thr := threshold(opts, n)
	res := Result{Red: red, Rounds: rounds, DecompositionColors: decompColors}
	for v := 0; v < n; v++ {
		perPart := make(map[int][2]int) // part -> [red, blue]
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			c := perPart[parts[u]]
			if red[u] {
				c[0]++
			} else {
				c[1]++
			}
			perPart[parts[u]] = c
		}
		for _, c := range perPart {
			deg := c[0] + c[1]
			if float64(deg) < thr {
				continue
			}
			res.Constrained++
			limit := (1 + opts.Lambda) * float64(deg) / 2
			worst := c[0]
			if c[1] > worst {
				worst = c[1]
			}
			if float64(worst) > limit {
				res.Violations++
			}
			imbalance := float64(worst)/float64(deg) - 0.5
			if imbalance > res.MaxImbalance {
				res.MaxImbalance = imbalance
			}
		}
	}
	return res
}

// UniformPartition returns the trivial one-part partition (V₁ = V), the
// starting point of the recursive splitting of Lemma 3.3.
func UniformPartition(n int) []int {
	return make([]int, n)
}

// RefinePartition splits every part of the given partition in two according
// to the red/blue assignment, producing the partition used by the next
// recursion level of Lemma 3.3.
func RefinePartition(parts []int, red []bool) []int {
	out := make([]int, len(parts))
	for v := range parts {
		out[v] = 2 * parts[v]
		if red[v] {
			out[v]++
		}
	}
	return compactLabels(out)
}

// compactLabels renumbers part labels densely (empty parts removed).
func compactLabels(parts []int) []int {
	remap := make(map[int]int)
	out := make([]int, len(parts))
	for v, lbl := range parts {
		if _, ok := remap[lbl]; !ok {
			remap[lbl] = len(remap)
		}
		out[v] = remap[lbl]
	}
	return out
}

// MaxPartDegree returns the maximum, over nodes v and parts i, of the number
// of neighbours of v inside part i — the quantity the recursive splitting
// drives down (Lemma 3.3). Part labels must be non-negative. One counter per
// label is shared by every node; each node resets only the entries it
// touched.
func MaxPartDegree(g *graph.Graph, parts []int) int {
	maxLabel := -1
	for _, p := range parts {
		maxLabel = max(maxLabel, p)
	}
	perPart := make([]int, maxLabel+1)
	maxDeg := 0
	for v := 0; v < g.NumNodes(); v++ {
		nbrs := g.Neighbors(graph.NodeID(v))
		for _, u := range nbrs {
			perPart[parts[u]]++
			maxDeg = max(maxDeg, perPart[parts[u]])
		}
		for _, u := range nbrs {
			perPart[parts[u]] = 0
		}
	}
	return maxDeg
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
