// Benchmarks, one per experiment E1–E10 (see EXPERIMENTS.md), plus
// micro-benchmarks for the hot substrate operations. The experiment
// benchmarks run the corresponding harness driver on a reduced sweep and
// report the headline quantity (total CONGEST rounds or colors) via
// b.ReportMetric so that `go test -bench` regenerates the same series as
// cmd/experiments.
package d2color

import (
	"fmt"
	"runtime"
	"testing"

	"d2color/internal/alg"
	"d2color/internal/baseline"
	"d2color/internal/detd2"
	"d2color/internal/graph"
	"d2color/internal/harness"
	"d2color/internal/polylogd2"
	"d2color/internal/randd2"
	"d2color/internal/splitting"
	"d2color/internal/trial"
)

// benchConfig is the reduced sweep configuration used by the experiment
// benchmarks (the full sweeps are run by cmd/experiments).
var benchConfig = harness.Config{Quick: true, Seed: 1, Repetitions: 1}

// runExperiment runs one harness experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var exp harness.Experiment
	for _, e := range harness.All() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(table.Rows)
	}
	b.ReportMetric(float64(rows), "table-rows")
}

// --- One benchmark per experiment -----------------------------------------

// BenchmarkE1RandomizedD2 regenerates E1 (Theorem 1.1: rounds vs n and Δ).
func BenchmarkE1RandomizedD2(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2FinalPhase regenerates E2 (Cor 2.1 vs Thm 1.1 final phases).
func BenchmarkE2FinalPhase(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3DeterministicD2 regenerates E3 (Theorem 1.2: rounds vs Δ).
func BenchmarkE3DeterministicD2(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4PolylogD2 regenerates E4 (Theorem 1.3: (1+ε)Δ² colors).
func BenchmarkE4PolylogD2(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5Splitting regenerates E5 (Theorem 3.2: splitting quality).
func BenchmarkE5Splitting(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6Linial regenerates E6 (Theorem B.1: Linial stage).
func BenchmarkE6Linial(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7LearnPalette regenerates E7 (Lemmas 2.14/2.15, Theorem 2.16).
func BenchmarkE7LearnPalette(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8NaiveCrossover regenerates E8 (naive Θ(Δ)-factor strawman).
func BenchmarkE8NaiveCrossover(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9SlackGeneration regenerates E9 (Prop 2.5 slack generation).
func BenchmarkE9SlackGeneration(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10DenseReduce regenerates E10 (Reduce machinery on Moore graphs).
func BenchmarkE10DenseReduce(b *testing.B) { runExperiment(b, "E10") }

// --- Direct algorithm benchmarks (rounds reported per size) ----------------

// BenchmarkRandomizedImprovedByN reports the CONGEST rounds of the improved
// randomized algorithm across graph sizes (the series behind E1's n-sweep).
func BenchmarkRandomizedImprovedByN(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNPWithAverageDegree(n, 12, int64(n))
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := randd2.Run(g, randd2.Options{}, alg.Engine{}, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Metrics.TotalRounds()
			}
			b.ReportMetric(float64(rounds), "congest-rounds")
		})
	}
}

// BenchmarkDeterministicByDelta reports the rounds of Theorem 1.2 across
// degrees (the series behind E3).
func BenchmarkDeterministicByDelta(b *testing.B) {
	for _, d := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			g := graph.RandomRegular(300, d, int64(d))
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := detd2.Run(g)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Metrics.TotalRounds()
			}
			b.ReportMetric(float64(rounds), "congest-rounds")
		})
	}
}

// BenchmarkPolylogColorG2 reports the rounds and colors of Theorem 1.3.
func BenchmarkPolylogColorG2(b *testing.B) {
	g := graph.GNPWithAverageDegree(256, 8, 3)
	var rounds, colors int
	for i := 0; i < b.N; i++ {
		res, err := polylogd2.ColorG2(g, polylogd2.Options{Epsilon: 1, DegreeThreshold: 6, ThresholdCoeff: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		rounds, colors = res.Metrics.TotalRounds(), res.ColorsUsed
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
	b.ReportMetric(float64(colors), "colors")
}

// BenchmarkNaiveBaseline reports the strawman's charged rounds (E8's series).
func BenchmarkNaiveBaseline(b *testing.B) {
	g := graph.GNPWithAverageDegree(512, 16, 5)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := baseline.NaiveD2(g, alg.Engine{}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Metrics.TotalRounds()
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}

// BenchmarkDeterministicSplit measures the derandomized splitting in
// isolation (the inner loop of Theorems 3.2 / 1.3).
func BenchmarkDeterministicSplit(b *testing.B) {
	g := graph.CompleteBipartite(150, 150)
	parts := splitting.UniformPartition(g.NumNodes())
	for i := 0; i < b.N; i++ {
		if _, err := splitting.DeterministicSplit(g, parts, splitting.Options{Lambda: 0.5, ThresholdCoeff: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of the design choices called out in DESIGN.md ---------------

// BenchmarkAblationFinalPhase compares the two final phases of the randomized
// algorithm (Corollary 2.1's Reduce(c₂ log n, 1) vs Theorem 1.1's
// LearnPalette+FinishColoring) on the same workload.
func BenchmarkAblationFinalPhase(b *testing.B) {
	g := graph.GNPWithAverageDegree(512, 12, 13)
	for _, variant := range []randd2.Variant{randd2.VariantBasic, randd2.VariantImproved} {
		b.Run(variant.String(), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := randd2.Run(g, randd2.Options{Variant: variant}, alg.Engine{}, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Metrics.TotalRounds()
			}
			b.ReportMetric(float64(rounds), "congest-rounds")
		})
	}
}

// BenchmarkAblationSimilarity compares the exact and the sampled similarity
// graph constructions (Section 2.3) on the zero-sparsity workload.
func BenchmarkAblationSimilarity(b *testing.B) {
	g := graph.HoffmanSingleton()
	for _, exact := range []bool{true, false} {
		name := "sampled"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			params := randd2.Default()
			params.ExactSimilarity = exact
			for i := 0; i < b.N; i++ {
				if _, err := randd2.Run(g, randd2.Options{Params: &params, DisableDeterministicFallback: true}, alg.Engine{}, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEngine compares the inline engine (workers=1) with a
// GOMAXPROCS-sized worker team (workers=N, run when N > 1) on the same
// message-level workload.
func BenchmarkAblationEngine(b *testing.B) {
	g := graph.GNPWithAverageDegree(2000, 12, 17)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	workerCounts := []int{1}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		workerCounts = append(workerCounts, procs)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trial.Run(g, trial.Config{PaletteSize: palette, MaxPhases: 3,
					Seed: uint64(i + 1), Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks --------------------------------------------

// BenchmarkSquareGraph measures computing G², the structure every algorithm
// in the repository consults.
func BenchmarkSquareGraph(b *testing.B) {
	g := graph.GNPWithAverageDegree(2000, 16, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Square()
	}
}

// BenchmarkTrialRun measures the end-to-end cost of one-phase trial runs on
// a reused kernel: per-run reset plus the message-level cost of a phase
// (three simulated CONGEST rounds). The warmed-up per-phase probe — which
// must report 0 allocs/op — is BenchmarkTrialPhase in internal/trial.
func BenchmarkTrialRun(b *testing.B) {
	g := graph.GNPWithAverageDegree(1000, 12, 9)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	r := trial.NewRunner(g, false, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(trial.Config{PaletteSize: palette, MaxPhases: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCongestBroadcastRound measures one simulator round of an
// all-neighbours broadcast on a mid-size graph.
func BenchmarkCongestBroadcastRound(b *testing.B) {
	g := graph.GNPWithAverageDegree(2000, 16, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := baseline.JohanssonD1(g, alg.Engine{}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}
