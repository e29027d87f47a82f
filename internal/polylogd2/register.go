package polylogd2

import (
	"d2color/internal/alg"
	"d2color/internal/graph"
)

// Algorithm wraps the Theorem-1.3 (1+ε)Δ² coloring in the unified
// alg.Algorithm interface. A zero Epsilon in the fixed options means 1.
func Algorithm(opts Options) alg.Algorithm {
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1
	}
	return alg.Func{
		AlgName: "polylog",
		Class:   alg.Deterministic,
		Palette: func(g *graph.Graph) int {
			d := g.MaxDegree()
			return paletteBound(d*d, opts.Epsilon)
		},
		RunFunc: func(g *graph.Graph, eng alg.Engine, seed uint64) (alg.Result, error) {
			r, err := ColorG2(g, opts, seed)
			if err != nil {
				return alg.Result{}, err
			}
			return alg.Result{Coloring: r.Coloring, PaletteSize: r.PaletteBound, Metrics: r.Metrics, Details: &r}, nil
		},
	}
}

func init() { alg.Register(Algorithm(Options{})) }
