package trial

import (
	"testing"
	"testing/quick"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
	"d2color/internal/verify"
)

func TestRunRejectsBadPalette(t *testing.T) {
	if _, err := Run(graph.Path(3), Config{PaletteSize: 0}); err == nil {
		t.Error("palette size 0 should be rejected")
	}
}

func TestD2TrialProducesValidColoring(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":    graph.GNP(80, 0.05, 1),
		"grid":   graph.Grid(8, 8),
		"star":   graph.Star(12),
		"clique": graph.Complete(8),
		"chain":  graph.CliqueChain(4, 5, 0),
	}
	for name, g := range graphs {
		delta := g.MaxDegree()
		palette := delta*delta + 1
		res, err := Run(g, Config{PaletteSize: palette, Scope: ScopeDistance2, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Complete {
			t.Fatalf("%s: trial run did not complete (phases=%d)", name, res.Phases)
		}
		if rep := verify.CheckD2(g, res.Coloring, palette); !rep.Valid {
			t.Errorf("%s: invalid d2-coloring: %v", name, rep.Error())
		}
		if res.Metrics.Rounds != 3*res.Phases {
			t.Errorf("%s: rounds=%d, want 3*phases=%d", name, res.Metrics.Rounds, 3*res.Phases)
		}
	}
}

func TestD1TrialProducesValidColoring(t *testing.T) {
	g := graph.GNP(100, 0.06, 3)
	palette := g.MaxDegree() + 1
	res, err := Run(g, Config{PaletteSize: palette, Scope: ScopeDistance1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("d1 trial did not complete")
	}
	if rep := verify.CheckD1(g, res.Coloring, palette); !rep.Valid {
		t.Errorf("invalid (Δ+1)-coloring: %v", rep.Error())
	}
}

func TestLargerPaletteFinishesFaster(t *testing.T) {
	// With a (1+ε)Δ² palette the simple algorithm finishes in O(log n)
	// phases; with exactly Δ²+1 colors it is typically slower on dense
	// neighborhoods. We only assert the qualitative ordering on a clique
	// chain averaged over seeds (weak but stable).
	g := graph.CliqueChain(6, 6, 0)
	delta := g.MaxDegree()
	small, large := 0, 0
	for seed := uint64(0); seed < 5; seed++ {
		rs, err := Run(g, Config{PaletteSize: delta*delta + 1, Seed: seed})
		if err != nil || !rs.Complete {
			t.Fatalf("small palette run failed: %v", err)
		}
		rl, err := Run(g, Config{PaletteSize: 2 * delta * delta, Seed: seed})
		if err != nil || !rl.Complete {
			t.Fatalf("large palette run failed: %v", err)
		}
		small += rs.Phases
		large += rl.Phases
	}
	if large > small {
		t.Errorf("doubling the palette should not slow completion: small=%d large=%d", small, large)
	}
}

func TestMaxPhasesRespected(t *testing.T) {
	g := graph.Complete(12)
	// One single color for a clique's square can never complete.
	res, err := Run(g, Config{PaletteSize: 1, MaxPhases: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("1-color palette on a clique cannot be complete")
	}
	if res.Phases != 5 {
		t.Errorf("phases = %d, want 5", res.Phases)
	}
	// The partial result must still be conflict-free.
	if rep := verify.CheckPartialD2(g, res.Coloring); !rep.Valid {
		t.Errorf("partial coloring has conflicts: %v", rep.Error())
	}
}

func TestInitialColoringRespected(t *testing.T) {
	g := graph.Path(5)
	init := coloring.New(5)
	init[2] = 7
	res, err := Run(g, Config{PaletteSize: 10, Seed: 2, Initial: init})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coloring[2] != 7 {
		t.Errorf("pre-colored node changed color: %d", res.Coloring[2])
	}
	if init[0] != coloring.Uncolored {
		t.Error("input coloring must not be modified")
	}
	if rep := verify.CheckD2(g, res.Coloring, 10); !rep.Valid {
		t.Errorf("final coloring invalid: %v", rep.Error())
	}
}

func TestCustomPickerAndQuietNodes(t *testing.T) {
	g := graph.Path(4)
	// A picker that always stays quiet: nothing gets colored.
	res, err := Run(g, Config{
		PaletteSize: 5,
		MaxPhases:   3,
		Seed:        1,
		Picker: func(v graph.NodeID, src *rng.Source, paletteSize int) int {
			return -1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coloring.NumColored() != 0 {
		t.Errorf("quiet picker should color nothing, colored %d", res.Coloring.NumColored())
	}
	if res.Complete {
		t.Error("run with quiet picker cannot be complete")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.GNP(50, 0.08, 9)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	a, err := Run(g, Config{PaletteSize: palette, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{PaletteSize: palette, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring {
		if a.Coloring[v] != b.Coloring[v] {
			t.Fatalf("node %d differs between identical runs", v)
		}
	}
	if a.Phases != b.Phases {
		t.Errorf("phase counts differ: %d vs %d", a.Phases, b.Phases)
	}
}

// Workers 1 runs the kernel inline and is the reference; every team size
// must reproduce its coloring, phase count and Metrics exactly.
func TestWorkersMatchInline(t *testing.T) {
	g := graph.GNP(60, 0.07, 4)
	palette := g.MaxDegree()*g.MaxDegree() + 1
	want, err := Run(g, Config{PaletteSize: palette, Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 16} {
		got, err := Run(g, Config{PaletteSize: palette, Seed: 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Phases != want.Phases || got.Metrics != want.Metrics {
			t.Fatalf("workers=%d: phases/metrics (%d,%v), inline (%d,%v)",
				workers, got.Phases, got.Metrics, want.Phases, want.Metrics)
		}
		for v := range want.Coloring {
			if want.Coloring[v] != got.Coloring[v] {
				t.Fatalf("workers=%d node %d: color %d, inline color %d", workers, v, got.Coloring[v], want.Coloring[v])
			}
		}
	}
}

func TestPropertyPartialColoringsAlwaysConflictFree(t *testing.T) {
	// Whatever the seed and phase budget, the produced (possibly partial)
	// coloring never contains a distance-2 conflict.
	f := func(seed uint64, phases uint8) bool {
		g := graph.GNP(40, 0.1, int64(seed%8))
		palette := g.MaxDegree()*g.MaxDegree() + 1
		res, err := Run(g, Config{PaletteSize: palette, Seed: seed, MaxPhases: int(phases%7) + 1})
		if err != nil {
			return false
		}
		return verify.CheckPartialD2(g, res.Coloring).Valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestUniformPickerBounds(t *testing.T) {
	if got := UniformPicker(0, nil, 0); got != -1 {
		t.Errorf("UniformPicker with empty palette = %d, want -1", got)
	}
}
