package baseline

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

// TestBaselineKernelReuseByteIdentical pins the hoisted-kernel contract: the
// simulated baselines on an injected, repeatedly reused trial kernel produce
// exactly the colorings and Metrics of a fresh throwaway kernel per call.
func TestBaselineKernelReuseByteIdentical(t *testing.T) {
	g := graph.GNPWithAverageDegree(600, 8, 17)
	tk := trial.NewRunner(g, false, 0)
	defer tk.Close()
	type run func(eng alg.Engine, seed uint64) (Result, error)
	cases := map[string]run{
		"johansson": func(eng alg.Engine, seed uint64) (Result, error) { return JohanssonD1(g, eng, seed) },
		"relaxed":   func(eng alg.Engine, seed uint64) (Result, error) { return RelaxedD2(g, Options{}, eng, seed) },
	}
	for name, fn := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				fresh, err := fn(alg.Engine{}, seed)
				if err != nil {
					t.Fatal(err)
				}
				reused, err := fn(alg.Engine{Kernel: kernelOf(tk)}, seed)
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Metrics != reused.Metrics || fresh.PaletteSize != reused.PaletteSize {
					t.Fatalf("metrics diverge:\nfresh:  %+v\nreused: %+v", fresh.Metrics, reused.Metrics)
				}
				for v := range fresh.Coloring {
					if fresh.Coloring[v] != reused.Coloring[v] {
						t.Fatalf("node %d: fresh %d, reused %d", v, fresh.Coloring[v], reused.Coloring[v])
					}
				}
			})
		}
	}
}

// TestBaselineKernelGraphMismatch rejects a kernel built for another graph
// instead of silently running the protocol on the wrong topology.
func TestBaselineKernelGraphMismatch(t *testing.T) {
	gA := graph.GNP(50, 0.1, 1)
	gB := graph.GNP(50, 0.1, 2)
	tk := trial.NewRunner(gA, false, 0)
	defer tk.Close()
	if _, err := JohanssonD1(gB, alg.Engine{Kernel: kernelOf(tk)}, 1); err == nil {
		t.Error("johansson accepted a kernel built for a different graph")
	}
	if _, err := RelaxedD2(gB, Options{}, alg.Engine{Kernel: kernelOf(tk)}, 1); err == nil {
		t.Error("relaxed accepted a kernel built for a different graph")
	}
}

// TestJohanssonHoistedAllocs gates the satellite itself: on a warmed injected
// kernel a JohanssonD1 call allocates a small constant number of objects (the
// output coloring and bookkeeping), not the former ~13-per-node kernel
// construction.
func TestJohanssonHoistedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation probe skipped in -short mode")
	}
	g := graph.GNPWithAverageDegree(4_000, 8, 29)
	tk := trial.NewRunner(g, false, 0)
	defer tk.Close()
	if _, err := JohanssonD1(g, alg.Engine{Kernel: kernelOf(tk)}, 1); err != nil {
		t.Fatal(err) // warm the kernel (palette rows grow on first Start)
	}
	seed := uint64(2)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := JohanssonD1(g, alg.Engine{Kernel: kernelOf(tk)}, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > 32 {
		t.Errorf("hoisted JohanssonD1: %d allocs/op, want a small n-independent constant (<= 32)", allocs)
	}
}

// TestBaselinePackedParity checks every baseline's packed path against its
// []int path color by color, on fresh and on injected kernels.
func TestBaselinePackedParity(t *testing.T) {
	g := graph.GNPWithAverageDegree(500, 8, 41)
	tk := trial.NewRunner(g, false, 0)
	defer tk.Close()
	type run func(packed bool) (Result, error)
	cases := map[string]run{
		"greedy": func(packed bool) (Result, error) {
			if packed {
				return GreedyD2Packed(g), nil
			}
			return GreedyD2(g), nil
		},
		"johansson": func(packed bool) (Result, error) {
			return JohanssonD1(g, alg.Engine{PackedColors: packed, Kernel: kernelOf(tk)}, 9)
		},
		"relaxed": func(packed bool) (Result, error) {
			return RelaxedD2(g, Options{}, alg.Engine{PackedColors: packed, Kernel: kernelOf(tk)}, 9)
		},
		"naive": func(packed bool) (Result, error) {
			return NaiveD2(g, alg.Engine{PackedColors: packed}, 9)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			plain, err := fn(false)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := fn(true)
			if err != nil {
				t.Fatal(err)
			}
			if packed.Packed == nil || packed.Coloring != nil {
				t.Fatal("packed run should fill Packed and leave Coloring nil")
			}
			if plain.Packed != nil || plain.Coloring == nil {
				t.Fatal("plain run should fill Coloring and leave Packed nil")
			}
			if plain.PaletteSize != packed.PaletteSize || plain.Metrics != packed.Metrics {
				t.Fatalf("palette/metrics diverge: %+v vs %+v", plain, packed)
			}
			for v := range plain.Coloring {
				if got := packed.Packed.Get(graph.NodeID(v)); got != plain.Coloring[v] {
					t.Fatalf("node %d: plain %d, packed %d", v, plain.Coloring[v], got)
				}
			}
		})
	}
}
