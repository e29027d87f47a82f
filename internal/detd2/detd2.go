// Package detd2 implements Theorem 1.2 of the paper: a deterministic CONGEST
// algorithm that distance-2 colors a graph with Δ²+1 colors in
// O(Δ² + log* n) rounds.
//
// The algorithm is the Appendix-B pipeline (Linial → locally-iterative →
// color reduction) executed on the conflict graph H = G², with the CONGEST
// cost model of Appendix B: the first two Linial iterations are pipelined in
// O(Δ) rounds, each further iteration fits in one message, each
// locally-iterative phase costs two rounds on G, and the color reduction
// costs O(Δ) setup plus O(1) rounds per phase. See internal/detcolor for the
// stage implementations.
package detd2

import (
	"fmt"

	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/detcolor"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

// Result is the outcome of a deterministic d2-coloring run.
type Result struct {
	Coloring    coloring.Coloring
	PaletteSize int // Δ(G²)+1 ≤ Δ²+1
	Metrics     congest.Metrics
	Stages      detcolor.Result // intermediate palettes and per-stage rounds
}

// Run executes the deterministic algorithm of Theorem 1.2 on g. The
// pipeline charges its rounds rather than simulating them message by
// message and builds no engine.
func Run(g *graph.Graph) (Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return Result{Coloring: coloring.New(0), PaletteSize: 1}, nil
	}

	// Linial consumes the model's IDs as its initial coloring. The IDs are
	// sequential, ID(v) = v, which detcolor.Color reads from a nil table.
	// The conflict graph H = G² is streamed, never materialized: the pipeline
	// pulls distance-2 neighborhoods straight from the CSR arrays of g.
	stages, err := detcolor.Color(graph.NewDist2View(g), nil, detcolor.DefaultCostModelG2(g.MaxDegree()))
	if err != nil {
		return Result{}, fmt.Errorf("detd2: %w", err)
	}

	res := Result{
		Coloring:    stages.Coloring,
		PaletteSize: stages.PaletteSize,
		Metrics:     stages.Metrics,
		Stages:      stages,
	}
	if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
		return Result{}, fmt.Errorf("detd2: produced invalid coloring: %w", rep.Error())
	}
	return res, nil
}
