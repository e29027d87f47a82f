package randd2

import (
	"fmt"
	"testing"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/trial"
)

// kernelOf returns an engine kernel provider that always offers tk.
func kernelOf(tk *trial.Runner) func() *trial.Runner {
	return func() *trial.Runner { return tk }
}

// TestTrialKernelReuseByteDeterminism is the byte-determinism property suite
// for the word-encoded kernel: for every graph family, variant, worker count
// and seed, a run that injects a shared, repeatedly reused trial kernel produces
// colorings and Metrics identical to a run that builds everything fresh and
// inline — i.e. kernel reuse (the Reset path) and the worker team are
// observationally invisible. The
// shared kernel survives across all seeds and variants of a family, so the
// test also exercises back-to-back reuse with differing configs.
func TestTrialKernelReuseByteDeterminism(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(64, 6, 3)},
		{"grid", graph.Grid(8, 8)},
		{"cliquechain", graph.CliqueChain(4, 5, 0)},
	}
	seeds := []uint64{1, 7, 42}
	for _, fam := range families {
		// The shared kernel runs at every worker count; the fresh reference
		// always runs inline (Workers 1).
		for _, workers := range []int{1, 2, 3, 4, 16} {
			shared := trial.NewRunner(fam.g, false, workers)
			defer shared.Close()
			for _, variant := range []Variant{VariantImproved, VariantBasic} {
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("%s/%s/workers=%d/seed=%d", fam.name, variant, workers, seed), func(t *testing.T) {
						opts := Options{Variant: variant, DisableDeterministicFallback: true}
						fresh, err := Run(fam.g, opts, alg.Engine{Workers: 1}, seed)
						if err != nil {
							t.Fatalf("fresh: %v", err)
						}
						reused, err := Run(fam.g, opts, alg.Engine{Kernel: kernelOf(shared)}, seed)
						if err != nil {
							t.Fatalf("reused: %v", err)
						}
						if fresh.Metrics != reused.Metrics {
							t.Fatalf("metrics differ:\nfresh:  %v\nreused: %v", fresh.Metrics, reused.Metrics)
						}
						if fresh.ActiveRounds != reused.ActiveRounds {
							t.Fatalf("active rounds differ: %d vs %d", fresh.ActiveRounds, reused.ActiveRounds)
						}
						for v := range fresh.Coloring {
							if fresh.Coloring[v] != reused.Coloring[v] {
								t.Fatalf("node %d: fresh color %d, reused color %d",
									v, fresh.Coloring[v], reused.Coloring[v])
							}
						}
					})
				}
			}
		}
	}
}

// A kernel built for a different graph must be rejected up front instead of
// panicking deep inside the trial run.
func TestTrialKernelGraphMismatchRejected(t *testing.T) {
	gA := graph.Grid(8, 8)
	gB := graph.Grid(4, 4)
	tk := trial.NewRunner(gA, false, 0)
	if _, err := Run(gB, Options{DisableDeterministicFallback: true}, alg.Engine{Kernel: kernelOf(tk)}, 1); err == nil {
		t.Fatal("mismatched trial kernel should be rejected")
	}
}
