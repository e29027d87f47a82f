package detd2

import (
	"d2color/internal/alg"
	"d2color/internal/congest"
	"d2color/internal/graph"
)

// Algorithm wraps the deterministic Theorem-1.2 pipeline in the unified
// alg.Algorithm interface. With the default sequential IDs the run is
// seed-invariant and classed Deterministic (the sweep engine runs it once
// per cell); randomized ID assignments seed Linial's first iteration, making
// the output seed-dependent, so those instances are classed Randomized.
func Algorithm(opts Options) alg.Algorithm {
	class := alg.Deterministic
	if opts.IDs != congest.IDSequential && opts.IDs != 0 {
		class = alg.Randomized
	}
	return alg.Func{
		AlgName: "deterministic",
		Class:   class,
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

func init() { alg.Register(Algorithm(Options{})) }
