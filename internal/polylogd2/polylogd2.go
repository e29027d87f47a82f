// Package polylogd2 implements the deterministic polylogarithmic-time
// coloring results of Section 3 of the paper:
//
//   - Partition (Lemma 3.3): recursively apply the local refinement splitting
//     to partition V into parts such that every vertex has few neighbours in
//     every part;
//   - ColorG (Theorem 3.4): a (1+ε)Δ coloring of the communication graph G,
//     obtained by coloring the low-degree parts in parallel with disjoint
//     palettes;
//   - ColorG2 (Theorem 1.3): a (1+ε)Δ² coloring of G², obtained by building
//     the induced subgraphs Hᵢ = G²[Vᵢ], coloring them in parallel with
//     disjoint palettes, and paying the Δ_h-factor simulation overhead of
//     Lemma 3.5 for every round on an Hᵢ.
//
// Scaling note (see DESIGN.md §2): the paper stops the recursive splitting at
// part degree Θ(ε⁻²·log³ n), which exceeds every degree reachable in a
// simulation, so with the paper's threshold the partition is trivial. The
// DegreeThreshold option exposes the stopping point; the experiments use a
// small threshold so that the splitting, the parallel sub-colorings and the
// simulation overhead are all exercised. The (1+ε) color guarantee is always
// enforced: if the partitioned scheme would exceed its color budget, the
// algorithm falls back to coloring the graph directly with Δ+1 (or Δ²+1)
// colors, which is within every (1+ε) budget.
package polylogd2

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/detcolor"
	"d2color/internal/graph"
	"d2color/internal/splitting"
	"d2color/internal/verify"
)

// Options configures the Section-3 algorithms.
type Options struct {
	// Epsilon is the ε of Theorems 3.4 and 1.3. Must be positive.
	Epsilon float64
	// ThresholdCoeff is forwarded to the splitting (Definition 3.1 threshold
	// coefficient); 0 means the splitting package default (12).
	ThresholdCoeff float64
	// DegreeThreshold is the maximum per-part degree at which the recursive
	// splitting stops. 0 means the paper's 1200·ε⁻²·log³ n.
	DegreeThreshold int
}

// ErrBadEpsilon is returned for non-positive ε.
var ErrBadEpsilon = errors.New("polylogd2: epsilon must be positive")

func (o Options) normalize(n int) (Options, error) {
	if o.Epsilon <= 0 {
		return o, fmt.Errorf("%w (got %g)", ErrBadEpsilon, o.Epsilon)
	}
	if o.DegreeThreshold <= 0 {
		logN := math.Log2(float64(maxInt(n, 2)))
		o.DegreeThreshold = int(1200 / (o.Epsilon * o.Epsilon) * logN * logN * logN)
	}
	return o, nil
}

// PartitionResult is the outcome of the recursive splitting of Lemma 3.3.
type PartitionResult struct {
	Parts         []int
	NumParts      int
	MaxPartDegree int
	Levels        int
	Rounds        int
}

// Partition recursively splits V with the deterministic local refinement
// splitting (Theorem 3.2) until every vertex has at most DegreeThreshold
// neighbours in every part, or after ⌈log₂ Δ⌉ + 1 levels. Each level uses
// the paper's balance parameter λ = ε'/(10·log₂ Δ) with ε' = ε/4, clamped
// into [0.05, 1]. The seed salts the splitting's tie-breaks.
func Partition(g *graph.Graph, opts Options, seed uint64) (PartitionResult, error) {
	n := g.NumNodes()
	opts, err := opts.normalize(n)
	if err != nil {
		return PartitionResult{}, err
	}
	logD := math.Log2(float64(maxInt(g.MaxDegree(), 2)))
	lambda := min(max(opts.Epsilon/4/(10*logD), 0.05), 1)
	maxLevels := int(math.Ceil(logD)) + 1
	parts := splitting.UniformPartition(n)
	res := PartitionResult{Parts: parts, NumParts: 1, MaxPartDegree: splitting.MaxPartDegree(g, parts)}
	for res.Levels < maxLevels && res.MaxPartDegree > opts.DegreeThreshold {
		split, serr := splitting.DeterministicSplit(g, res.Parts, splitting.Options{
			Lambda:         lambda,
			ThresholdCoeff: opts.ThresholdCoeff,
			Seed:           seed + uint64(res.Levels)*7919,
		})
		if serr != nil {
			return PartitionResult{}, fmt.Errorf("polylogd2: level %d: %w", res.Levels, serr)
		}
		res.Parts = splitting.RefinePartition(res.Parts, split.Red)
		res.Rounds += split.Rounds
		res.Levels++
		res.MaxPartDegree = splitting.MaxPartDegree(g, res.Parts)
		res.NumParts = countParts(res.Parts)
	}
	return res, nil
}

// Result is a (1+ε) coloring.
type Result struct {
	Coloring     coloring.Coloring
	ColorsUsed   int
	PaletteBound int // the (1+ε)Δ or (1+ε)Δ² budget the coloring respects
	Metrics      congest.Metrics
	NumParts     int
	Levels       int
	// UsedDirectFallback is set when the partitioned scheme would have
	// exceeded its color budget and the graph was colored directly instead.
	UsedDirectFallback bool
}

// conflictTarget is the coloring target of colorPartitioned: either the
// communication graph itself (Theorem 3.4) or the streamed square view
// (Theorem 1.3). Both *graph.Graph and *graph.Dist2View satisfy it, so G² is
// partitioned and colored without ever being materialized — only the small
// per-part induced subgraphs G²[Vᵢ] are built explicitly. InducedSubgraphOf
// takes a sorted node list and a reusable sparse-set index, so extracting
// every part costs O(n) in total, not O(n) per part.
type conflictTarget interface {
	detcolor.ConflictGraph
	InducedSubgraphOf(nodes []graph.NodeID, index []int32) *graph.Graph
}

// ColorG implements Theorem 3.4: a (1+ε)Δ coloring of G in polylogarithmic
// time (given the splitting substrate), by coloring the parts of the
// Lemma-3.3 partition in parallel with disjoint palettes. The seed salts the
// splitting's tie-breaks.
func ColorG(g *graph.Graph, opts Options, seed uint64) (Result, error) {
	delta := g.MaxDegree()
	bound := paletteBound(delta, opts.Epsilon)
	res, err := colorPartitioned(g, g, opts, seed, bound, 1)
	if err != nil {
		return Result{}, err
	}
	if g.NumNodes() > 0 {
		if rep := verify.CheckD1(g, res.Coloring, res.PaletteBound); !rep.Valid {
			return Result{}, fmt.Errorf("polylogd2: ColorG produced invalid coloring: %w", rep.Error())
		}
	}
	return res, nil
}

// ColorG2 implements Theorem 1.3: a (1+ε)Δ² coloring of G², by partitioning G
// with parameter ε/4, coloring the induced square subgraphs Hᵢ = G²[Vᵢ] in
// parallel with disjoint palettes, and charging the Δ_h simulation overhead
// of Lemma 3.5 for the rounds spent on the Hᵢ. The seed salts the
// splitting's tie-breaks.
func ColorG2(g *graph.Graph, opts Options, seed uint64) (Result, error) {
	if opts.Epsilon <= 0 {
		return Result{}, fmt.Errorf("%w (got %g)", ErrBadEpsilon, opts.Epsilon)
	}
	delta := g.MaxDegree()
	bound := paletteBound(delta*delta, opts.Epsilon)
	inner := opts
	inner.Epsilon = opts.Epsilon / 4
	res, err := colorPartitioned(g, graph.NewDist2View(g), inner, seed, bound, 0)
	if err != nil {
		return Result{}, err
	}
	res.PaletteBound = bound
	if g.NumNodes() > 0 {
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteBound); !rep.Valid {
			return Result{}, fmt.Errorf("polylogd2: ColorG2 produced invalid coloring: %w", rep.Error())
		}
	}
	return res, nil
}

// colorPartitioned colors the conflict graph `target` (either G itself or G²)
// with disjoint palettes per part of a partition of the communication graph
// g. simulationScale is the per-round overhead for running on the parts of
// the target: 1 when target = G (vertex-disjoint parts communicate directly),
// 0 when target = G² (the Δ_h overhead of Lemma 3.5 is derived from the
// computed partition).
func colorPartitioned(g *graph.Graph, target conflictTarget, opts Options, seed uint64, bound int, simulationScale int) (Result, error) {
	n := g.NumNodes()
	res := Result{PaletteBound: bound}
	if n == 0 {
		res.Coloring = coloring.New(0)
		return res, nil
	}

	part, err := Partition(g, opts, seed)
	if err != nil {
		return Result{}, err
	}
	res.NumParts = part.NumParts
	res.Levels = part.Levels

	scale := simulationScale
	if scale <= 0 {
		// Lemma 3.5: one round on Hᵢ = G²[Vᵢ] costs O(Δ_h) rounds on G, where
		// Δ_h is the per-part G-degree bound from the partition.
		scale = maxInt(part.MaxPartDegree, 1)
	}

	// Bucket the nodes by part with one counting pass: part p's nodes are
	// nodes[start[p]:start[p+1]], ascending because v is visited in order.
	// ids holds the same nodes as detcolor identifiers.
	start := make([]int, part.NumParts+1)
	for _, p := range part.Parts {
		start[p+1]++
	}
	for p := 1; p <= part.NumParts; p++ {
		start[p] += start[p-1]
	}
	nodes := make([]graph.NodeID, n)
	ids := make([]int, n)
	next := slices.Clone(start[:part.NumParts])
	for v, p := range part.Parts {
		nodes[next[p]] = graph.NodeID(v)
		ids[next[p]] = v
		next[p]++
	}

	// Color each part of the target graph with its own palette.
	combined := coloring.New(n)
	index := make([]int32, n) // the sparse-set index every part reuses
	offset := 0
	maxPartRounds := 0
	for p := 0; p < part.NumParts; p++ {
		lo, hi := start[p], start[p+1]
		if lo == hi {
			continue
		}
		sub := target.InducedSubgraphOf(nodes[lo:hi], index)
		colored, err := detcolor.Color(sub, ids[lo:hi], detcolor.DefaultCostModelG().Scale(scale))
		if err != nil {
			return Result{}, fmt.Errorf("polylogd2: part %d: %w", p, err)
		}
		for i, orig := range nodes[lo:hi] {
			combined[orig] = offset + colored.Coloring[i]
		}
		offset += colored.PaletteSize
		if r := colored.Metrics.TotalRounds(); r > maxPartRounds {
			maxPartRounds = r
		}
	}

	res.ColorsUsed = offset
	res.Metrics = congest.Metrics{ChargedRounds: part.Rounds + maxPartRounds}
	res.Coloring = combined

	// Enforce the (1+ε) budget: fall back to the direct Δ+1 coloring of the
	// target when the partitioned palette is too large (Theorem 3.4's h is
	// chosen to make this impossible asymptotically; at simulation scale the
	// guarantee is enforced explicitly).
	if offset > bound {
		fallbackScale := 1
		if simulationScale <= 0 {
			// Direct coloring of G² relays through G: Θ(Δ) rounds per round.
			fallbackScale = maxInt(g.MaxDegree(), 1)
		}
		direct, err := detcolor.Color(target, nil, detcolor.DefaultCostModelG().Scale(fallbackScale))
		if err != nil {
			return Result{}, fmt.Errorf("polylogd2: direct fallback: %w", err)
		}
		res.Coloring = direct.Coloring
		res.ColorsUsed = direct.PaletteSize
		res.Metrics = congest.Metrics{ChargedRounds: part.Rounds + direct.Metrics.TotalRounds()}
		res.UsedDirectFallback = true
	}
	return res, nil
}

// paletteBound returns the (1+ε)·base color budget, never below base+1.
func paletteBound(base int, epsilon float64) int {
	b := int(math.Floor((1 + epsilon) * float64(base)))
	if b < base+1 {
		b = base + 1
	}
	return b
}

func countParts(parts []int) int {
	maxLbl := -1
	for _, p := range parts {
		if p > maxLbl {
			maxLbl = p
		}
	}
	return maxLbl + 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
