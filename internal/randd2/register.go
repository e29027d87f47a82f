package randd2

import (
	"d2color/internal/alg"
	"d2color/internal/graph"
)

// Algorithm wraps the randomized d2-coloring in the unified alg.Algorithm
// interface. The fixed options carry the algorithm's own parameters; the
// engine and the seed are supplied per Run call.
func Algorithm(opts Options) alg.Algorithm {
	name := "rand-improved"
	if opts.Variant == VariantBasic {
		name = "rand-basic"
	}
	return alg.Func{
		AlgName: name,
		Class:   alg.Randomized,
		Palette: alg.D2Palette,
		RunFunc: func(g *graph.Graph, eng alg.Engine, seed uint64) (alg.Result, error) {
			r, err := Run(g, opts, eng, seed)
			if err != nil {
				return alg.Result{}, err
			}
			return alg.Result{Coloring: r.Coloring, PaletteSize: r.PaletteSize, Metrics: r.Metrics, Details: &r}, nil
		},
	}
}

func init() {
	alg.Register(Algorithm(Options{Variant: VariantImproved}))
	alg.Register(Algorithm(Options{Variant: VariantBasic}))
}
