package randd2

import (
	"d2color/internal/alg"
	"d2color/internal/graph"
)

// Algorithm wraps the randomized d2-coloring in the unified alg.Algorithm
// interface. The fixed options carry everything but the seed and the engine,
// which are supplied per Run call; a reusable trial kernel offered by the
// engine (alg.Engine.Kernel) is consumed unless the options already inject
// one.
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
			o := opts
			o.Seed = seed
			o.Workers = eng.Workers
			if o.TrialKernel == nil && eng.Kernel != nil {
				o.TrialKernel = eng.Kernel()
			}
			r, err := Run(g, o)
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
