package baseline

import (
	"d2color/internal/alg"
	"d2color/internal/graph"
)

// GreedyAlgorithm wraps the sequential greedy reference in the unified
// alg.Algorithm interface.
func GreedyAlgorithm() alg.Algorithm {
	return alg.Func{
		AlgName: "greedy",
		Class:   alg.Deterministic,
		Palette: alg.D2Palette,
		RunFunc: func(g *graph.Graph, _ alg.Engine, _ uint64) (alg.Result, error) {
			return result(GreedyD2(g)), nil
		},
	}
}

// NaiveAlgorithm wraps the Θ(Δ)-per-round G²-simulation strawman in the
// unified alg.Algorithm interface.
func NaiveAlgorithm() alg.Algorithm {
	return alg.Func{
		AlgName: "naive",
		Class:   alg.Randomized,
		Palette: alg.D2Palette,
		RunFunc: func(g *graph.Graph, eng alg.Engine, seed uint64) (alg.Result, error) {
			r, err := NaiveD2(g, eng, seed)
			if err != nil {
				return alg.Result{}, err
			}
			return result(r), nil
		},
	}
}

// RelaxedAlgorithm wraps the whole-palette (1+ε)Δ² random-trial baseline in
// the unified alg.Algorithm interface. A negative Epsilon means 0.
func RelaxedAlgorithm(opts Options) alg.Algorithm {
	return alg.Func{
		AlgName: "relaxed",
		Class:   alg.Randomized,
		Palette: func(g *graph.Graph) int {
			return relaxedPalette(g.MaxDegree(), opts.Epsilon)
		},
		RunFunc: func(g *graph.Graph, eng alg.Engine, seed uint64) (alg.Result, error) {
			r, err := RelaxedD2(g, opts, eng, seed)
			if err != nil {
				return alg.Result{}, err
			}
			return result(r), nil
		},
	}
}

func result(r Result) alg.Result {
	return alg.Result{Coloring: r.Coloring, PaletteSize: r.PaletteSize, Metrics: r.Metrics, Details: &r}
}

func init() {
	alg.Register(GreedyAlgorithm())
	alg.Register(NaiveAlgorithm())
	alg.Register(RelaxedAlgorithm(Options{Epsilon: 1}))
}
