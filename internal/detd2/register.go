package detd2

import (
	"d2color/internal/alg"
	"d2color/internal/graph"
)

// Algorithm wraps the deterministic Theorem-1.2 pipeline in the unified
// alg.Algorithm interface. The run reads sequential IDs and no randomness,
// so it is seed-invariant and classed Deterministic (the sweep engine runs
// it once per cell).
func Algorithm() alg.Algorithm {
	return alg.Func{
		AlgName: "deterministic",
		Class:   alg.Deterministic,
		Palette: alg.D2Palette,
		RunFunc: func(g *graph.Graph, _ alg.Engine, _ uint64) (alg.Result, error) {
			r, err := Run(g)
			if err != nil {
				return alg.Result{}, err
			}
			return alg.Result{Coloring: r.Coloring, PaletteSize: r.PaletteSize, Metrics: r.Metrics, Details: &r}, nil
		},
	}
}

func init() { alg.Register(Algorithm()) }
