package mis

import (
	"fmt"

	"d2color/internal/alg"
	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// Algorithm wraps the distance-K MIS in the unified alg.Algorithm interface.
// Set membership is encoded as a 2-coloring (1 = in the set, 0 = dominated),
// which is exactly the "coloring-shaped" view the sweep engine aggregates; a
// zero K in the fixed options means 1.
func Algorithm(opts Options) alg.Algorithm {
	if opts.K < 1 {
		opts.K = 1
	}
	name := "mis"
	if opts.K > 1 {
		name = fmt.Sprintf("mis-d%d", opts.K)
	}
	return alg.Func{
		AlgName: name,
		Class:   alg.Randomized,
		NotD2:   true, // set membership, not a distance-2 coloring
		Palette: func(*graph.Graph) int { return 2 },
		RunFunc: func(g *graph.Graph, _ alg.Engine, seed uint64) (alg.Result, error) {
			r, err := Run(g, opts, seed)
			if err != nil {
				return alg.Result{}, err
			}
			c := coloring.New(g.NumNodes())
			for v, in := range r.InSet {
				if in {
					c[v] = 1
				} else {
					c[v] = 0
				}
			}
			return alg.Result{Coloring: c, PaletteSize: 2, Metrics: r.Metrics, Details: &r}, nil
		},
	}
}

func init() {
	alg.Register(Algorithm(Options{K: 1}))
	alg.Register(Algorithm(Options{K: 2}))
}
