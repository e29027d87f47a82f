// Package baseline implements the comparison algorithms used by the
// experiment harness:
//
//   - GreedyD2: the sequential greedy distance-2 coloring, the color-count
//     floor every distributed algorithm is compared against;
//   - JohanssonD1: the classical randomized (Δ+1)-coloring of G from the
//     1980s ([19, 9] in the paper), run on the CONGEST simulator — the
//     algorithm whose d2 analogue the paper's introduction explains cannot be
//     implemented directly;
//   - NaiveD2: the strawman the introduction argues against — run the simple
//     randomized coloring on G² and pay Θ(Δ) CONGEST rounds on G for every
//     simulated G² round;
//   - RelaxedD2: the simple whole-palette random-trial algorithm with
//     (1+ε)Δ² colors (Section 2.1), which runs directly on G and finishes in
//     O(log_{1/ε} n) phases but needs more colors than Δ²+1.
package baseline

import (
	"fmt"

	"d2color/internal/alg"
	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/trial"
	"d2color/internal/verify"
)

// Result is the common shape of a baseline run.
type Result struct {
	Coloring    coloring.Coloring
	PaletteSize int
	Metrics     congest.Metrics
	Algorithm   string
}

// Options holds RelaxedD2's parameter (the greedy baselines, JohanssonD1 and
// NaiveD2 have none beyond the engine and the seed).
type Options struct {
	// Epsilon is the palette slack of RelaxedD2; negative values are treated
	// as 0.
	Epsilon float64
}

// runTrial runs a trial on the reusable kernel eng.Kernel returns (built for
// g, not closed), or on a throwaway one (trial.Run) when the engine offers
// none; eng.Workers fills the config's worker count.
func runTrial(g *graph.Graph, eng alg.Engine, cfg trial.Config) (trial.Result, error) {
	cfg.Workers = eng.Workers
	if eng.Kernel != nil {
		tk := eng.Kernel()
		if tk.Graph() != g {
			return trial.Result{}, fmt.Errorf("baseline: injected trial kernel was built for a different graph")
		}
		return tk.Run(cfg)
	}
	return trial.Run(g, cfg)
}

// GreedyD2 colors G² sequentially in node order, always choosing the smallest
// color not used within distance 2. It uses at most Δ(G²)+1 ≤ Δ²+1 colors and
// zero communication rounds; it is the correctness and color-count reference.
// Distance-2 neighborhoods are streamed from the CSR arrays — the square is
// never materialized — and the used-color set is a palette bitset, so the
// first-free pick is a TrailingZeros64 word scan instead of an
// element-at-a-time prefix walk; the greedy floor scales to million-node
// graphs.
func GreedyD2(g *graph.Graph) Result {
	d2 := graph.NewDist2View(g)
	n := g.NumNodes()
	c := coloring.New(n)
	// Greedy assigns node v a color at most its d2-degree, so Δ(G²)+1 bits
	// bound every pick; +1 more keeps FirstZero in range when a node's whole
	// prefix is used. The walk visits the raw 1- and 2-hop lists without
	// deduplication: marking a color twice is idempotent and a one-word
	// bit-op on the L1-resident palette row, cheaper than the dist-2 view's
	// per-visit membership probe into an n-sized mark buffer (v itself needs
	// no exclusion — it is still uncolored when its own pick runs). Only the
	// bits set for the current node (tracked in touched) are cleared between
	// nodes.
	used := bitset.NewFixed(d2.MaxDist2Degree() + 2)
	var touched []int32
	mark := func(col int) {
		if col != coloring.Uncolored && !used.Test(col) {
			used.Set(col)
			touched = append(touched, int32(col))
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			mark(c[u])
			for _, w := range g.Neighbors(u) {
				mark(c[w])
			}
		}
		c[v] = used.FirstZero()
		for _, t := range touched {
			used.Clear(int(t))
		}
		touched = touched[:0]
	}
	return Result{Coloring: c, PaletteSize: d2.MaxDist2Degree() + 1, Algorithm: "greedy-d2"}
}

// GreedyD1 colors G sequentially with at most Δ+1 colors, picking first-free
// colors by word scan like GreedyD2.
func GreedyD1(g *graph.Graph) Result {
	c := coloring.New(g.NumNodes())
	used := bitset.NewFixed(g.MaxDegree() + 2)
	var touched []int32
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if col := c[u]; col != coloring.Uncolored && !used.Test(col) {
				used.Set(col)
				touched = append(touched, int32(col))
			}
		}
		c[v] = used.FirstZero()
		for _, t := range touched {
			used.Clear(int(t))
		}
		touched = touched[:0]
	}
	return Result{Coloring: c, PaletteSize: g.MaxDegree() + 1, Algorithm: "greedy-d1"}
}

// JohanssonD1 runs the simple randomized (Δ+1)-coloring of G on the CONGEST
// simulator: in every phase each uncolored node tries a uniformly random
// color and keeps it if no neighbor uses or simultaneously tries it. The
// seed drives the per-node randomness; eng's worker count and reusable
// kernel are honored (see runTrial).
func JohanssonD1(g *graph.Graph, eng alg.Engine, seed uint64) (Result, error) {
	palette := g.MaxDegree() + 1
	res, err := runTrial(g, eng, trial.Config{
		PaletteSize:    palette,
		Scope:          trial.ScopeDistance1,
		Seed:           seed,
		AvoidKnownUsed: true,
	})
	if err != nil {
		return Result{}, fmt.Errorf("johansson: %w", err)
	}
	if !res.Complete {
		return Result{}, fmt.Errorf("johansson: did not complete within %d phases", res.Phases)
	}
	return Result{Coloring: res.Coloring, PaletteSize: palette, Metrics: res.Metrics, Algorithm: "johansson-d1"}, nil
}

// RelaxedD2 runs the simple whole-palette random-trial d2-coloring with
// ceil((1+epsilon)·Δ²)+1 colors directly on G (Section 2.1's first
// observation). It is fast but uses more colors than the paper's main
// algorithms. The engine and the seed are used as by JohanssonD1.
func RelaxedD2(g *graph.Graph, opts Options, eng alg.Engine, seed uint64) (Result, error) {
	palette := relaxedPalette(g.MaxDegree(), opts.Epsilon)
	res, err := runTrial(g, eng, trial.Config{
		PaletteSize: palette,
		Scope:       trial.ScopeDistance2,
		Seed:        seed,
	})
	if err != nil {
		return Result{}, fmt.Errorf("relaxed-d2: %w", err)
	}
	if !res.Complete {
		return Result{}, fmt.Errorf("relaxed-d2: did not complete within %d phases", res.Phases)
	}
	return Result{Coloring: res.Coloring, PaletteSize: palette, Metrics: res.Metrics, Algorithm: "relaxed-d2"}, nil
}

// relaxedPalette is the (1+ε)Δ²+1 palette of RelaxedD2 (negative ε means 0),
// shared with the alg adapter's advertised bound.
func relaxedPalette(delta int, epsilon float64) int {
	if epsilon < 0 {
		epsilon = 0
	}
	return int(float64(delta*delta)*(1+epsilon)) + 1
}

// NaiveD2 implements the strawman from the introduction: run the simple
// randomized (Δ(G²)+1)-coloring on the square graph and charge Θ(Δ) CONGEST
// rounds on G for every round simulated on G², because in general a single
// G² round requires Ω(Δ) rounds on G to relay all messages through
// intermediate nodes.
//
// The returned metrics contain the charged G-rounds (simulated G²-rounds ×
// Δ); the simulated rounds of the inner run are reported as G²-rounds via the
// Rounds field of the inner metrics and folded into ChargedRounds here.
// The seed drives the per-node randomness; eng's worker count is honored,
// and its reusable kernel is not (the trial runs on the materialized square,
// not on g).
func NaiveD2(g *graph.Graph, eng alg.Engine, seed uint64) (Result, error) {
	// The strawman genuinely runs a CONGEST simulation ON the square, so this
	// is the one place the square is (deliberately) built as a standing
	// graph — through the streaming view and the sort-dedupe builder, which
	// is the cheapest way to pay the cost the paper's introduction warns
	// about.
	sq := graph.NewDist2View(g).Materialize()
	palette := sq.MaxDegree() + 1
	if palette < 1 {
		palette = 1
	}
	res, err := trial.Run(sq, trial.Config{
		PaletteSize: palette,
		Scope:       trial.ScopeDistance1, // distance-1 on G² is distance-2 on G
		Seed:        seed,
		Workers:     eng.Workers,
		// The whole point of paying the Δ-factor simulation is that nodes can
		// track their G²-neighbors' colors, so the simple algorithm picks
		// among colors it has not seen used.
		AvoidKnownUsed: true,
	})
	if err != nil {
		return Result{}, fmt.Errorf("naive-d2: %w", err)
	}
	if !res.Complete {
		return Result{}, fmt.Errorf("naive-d2: did not complete within %d phases", res.Phases)
	}
	simulationFactor := g.MaxDegree()
	if simulationFactor < 1 {
		simulationFactor = 1
	}
	m := congest.Metrics{
		ChargedRounds: res.Metrics.Rounds * simulationFactor,
		MessagesSent:  res.Metrics.MessagesSent,
		WordsSent:     res.Metrics.WordsSent,
	}
	// Verify on the original graph as a belt-and-braces check: a proper
	// coloring of G² is by definition a d2-coloring of G.
	if rep := verify.CheckD2(g, res.Coloring, palette); !rep.Valid {
		return Result{}, fmt.Errorf("naive-d2: internal error, produced invalid coloring: %w", rep.Error())
	}
	return Result{Coloring: res.Coloring, PaletteSize: palette, Metrics: m, Algorithm: "naive-d2"}, nil
}
