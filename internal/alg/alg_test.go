package alg_test

import (
	"testing"

	"d2color/internal/alg"
	"d2color/internal/congest"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/detd2"
	"d2color/internal/graph"
	"d2color/internal/polylogd2"
	"d2color/internal/verify"
)

func TestDefaultRegistrations(t *testing.T) {
	for _, name := range []string{
		"rand-improved", "rand-basic", "deterministic", "polylog",
		"greedy", "naive", "relaxed",
	} {
		a, ok := alg.Get(name)
		if !ok {
			t.Errorf("%s: not registered", name)
			continue
		}
		if a.Name() != name {
			t.Errorf("%s: Name() = %q", name, a.Name())
		}
	}
	names := alg.Names()
	if len(names) != 7 {
		t.Errorf("Names() = %v, want exactly the seven distance-2 coloring algorithms", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
	if len(alg.All()) != len(names) {
		t.Errorf("All() and Names() disagree: %d vs %d", len(alg.All()), len(names))
	}
}

func TestDeterminismClasses(t *testing.T) {
	for name, want := range map[string]alg.Determinism{
		"rand-improved": alg.Randomized,
		"rand-basic":    alg.Randomized,
		"deterministic": alg.Deterministic,
		"polylog":       alg.Deterministic,
		"greedy":        alg.Deterministic,
		"naive":         alg.Randomized,
		"relaxed":       alg.Randomized,
	} {
		if got := alg.MustGet(name).Determinism(); got != want {
			t.Errorf("%s: determinism = %v, want %v", name, got, want)
		}
	}
}

// TestColoringAlgorithmsProduceValidColorings runs every registered
// algorithm through the uniform interface and verifies the result against its
// own palette bound.
func TestColoringAlgorithmsProduceValidColorings(t *testing.T) {
	g := graph.GNPWithAverageDegree(150, 8, 7)
	for _, a := range alg.All() {
		res, err := a.Run(g, alg.Engine{}, 3)
		if err != nil {
			t.Errorf("%s: %v", a.Name(), err)
			continue
		}
		if res.PaletteSize > a.PaletteBound(g) {
			t.Errorf("%s: palette %d exceeds advertised bound %d", a.Name(), res.PaletteSize, a.PaletteBound(g))
		}
		if rep := verify.CheckD2(g, res.Coloring, res.PaletteSize); !rep.Valid {
			t.Errorf("%s: invalid coloring: %v", a.Name(), rep.Error())
		}
	}
}

func TestDeterministicClassIsSeedInvariant(t *testing.T) {
	g := graph.GNPWithAverageDegree(120, 6, 11)
	for _, a := range alg.All() {
		if a.Determinism() != alg.Deterministic {
			continue
		}
		r1, err1 := a.Run(g, alg.Engine{}, 1)
		r2, err2 := a.Run(g, alg.Engine{}, 999)
		if err1 != nil || err2 != nil {
			t.Errorf("%s: %v / %v", a.Name(), err1, err2)
			continue
		}
		for v := range r1.Coloring {
			if r1.Coloring[v] != r2.Coloring[v] {
				t.Errorf("%s: deterministic class but seed-dependent coloring at node %d", a.Name(), v)
				break
			}
		}
	}
}

// TestSeedDependentOptionsFlipDeterminismClass pins the classification of
// parameterized instances whose options make the output seed-dependent: the
// sweep engine must average those over repetitions, not collapse them to one.
func TestSeedDependentOptionsFlipDeterminismClass(t *testing.T) {
	if got := polylogd2.Algorithm(polylogd2.Options{UseRandomizedSplit: true}).Determinism(); got != alg.Randomized {
		t.Errorf("polylog with randomized splitting classed %v, want randomized", got)
	}
	// Randomized IDs seed Linial's first iteration, so the output is
	// seed-dependent.
	if got := detd2.Algorithm(detd2.Options{IDs: congest.IDSparseRandom}).Determinism(); got != alg.Randomized {
		t.Errorf("deterministic pipeline with randomized IDs classed %v, want randomized", got)
	}
	if got := detd2.Algorithm(detd2.Options{}).Determinism(); got != alg.Deterministic {
		t.Errorf("default deterministic pipeline classed %v, want deterministic", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, a alg.Algorithm) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register should panic", name)
			}
		}()
		alg.Register(a)
	}
	mustPanic("empty name", alg.Func{AlgName: ""})
	mustPanic("duplicate", alg.Func{AlgName: "greedy"})
}

func TestMustGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on an unknown name should panic")
		}
	}()
	alg.MustGet("no-such-algorithm")
}
