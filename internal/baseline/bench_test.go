package baseline

import (
	"fmt"
	"testing"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/trial"
)

// BenchmarkGreedyD2 measures the sequential greedy distance-2 baseline — the
// color-count floor every sweep computes — on sparse GNP workloads. The
// dominant inner operation is the first-free-color pick over the used set.
func BenchmarkGreedyD2(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.GNPWithAverageDegree(n, 8, 23)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := GreedyD2(g)
				if !r.Coloring.Complete() {
					b.Fatal("greedy left nodes uncolored")
				}
			}
		})
	}
}

// BenchmarkJohanssonD1 measures the simulated (Δ+1)-coloring whose picker
// samples uniformly among colors not known used — the availability-sampling
// path of the trial kernel — on a hoisted kernel: the network, its processes
// and every per-node buffer are built once and rewound per run, so the
// per-op allocations are the output coloring plus small constants instead of
// the former ~132k-alloc kernel construction.
func BenchmarkJohanssonD1(b *testing.B) {
	g := graph.GNPWithAverageDegree(10_000, 8, 29)
	tk := trial.NewRunner(g, false, 0)
	defer tk.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JohanssonD1(g, alg.Engine{Kernel: kernelOf(tk)}, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGreedyAllocBounded gates the greedy baseline's allocation profile: the
// bitset palette row and the output coloring are the only allocations, so
// the alloc count per run is a small constant independent of n (the former
// per-node map/bool-slice churn would scale with the node count).
func TestGreedyAllocBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation probe skipped in -short mode")
	}
	for _, n := range []int{2_000, 8_000} {
		g := graph.GNPWithAverageDegree(n, 8, 31)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GreedyD2(g)
			}
		})
		if allocs := res.AllocsPerOp(); allocs > 16 {
			t.Errorf("GreedyD2 at n=%d: %d allocs/op, want a small n-independent constant (<= 16)", n, allocs)
		}
	}
}
