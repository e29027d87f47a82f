package trial

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
)

// kernelConfigs is a spread of trial configurations exercising every code
// path of the kernel: both scopes, the known-colors picker, a phase cap and
// an initial coloring.
func kernelConfigs(g *graph.Graph, seed uint64) []Config {
	delta := g.MaxDegree()
	init := coloring.New(g.NumNodes())
	init[0] = 3
	return []Config{
		{PaletteSize: delta*delta + 1, Scope: ScopeDistance2, Seed: seed},
		{PaletteSize: delta + 1, Scope: ScopeDistance1, Seed: seed, AvoidKnownUsed: true},
		{PaletteSize: 2*delta*delta + 5, Scope: ScopeDistance2, Seed: seed, MaxPhases: 6},
		{PaletteSize: delta*delta + 4, Scope: ScopeDistance2, Seed: seed, Initial: init},
	}
}

// A Runner re-run with a new config must behave byte-identically to a fresh
// inline kernel on a fresh network — same colorings, same phases, same
// Metrics — at every worker count of the reused runner, across seeds, even when the configs alternate scopes
// and pickers between runs.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	g := graph.GNP(80, 0.07, 11)
	for _, workers := range []int{1, 2, 3, 4, 16} {
		reused := NewRunner(g, false, workers)
		defer reused.Close()
		for _, seed := range []uint64{1, 7, 42} {
			for i, cfg := range kernelConfigs(g, seed) {
				t.Run(fmt.Sprintf("workers=%d/seed=%d/cfg=%d", workers, seed, i), func(t *testing.T) {
					fresh, err := Run(g, Config{PaletteSize: cfg.PaletteSize, Scope: cfg.Scope,
						MaxPhases: cfg.MaxPhases, AvoidKnownUsed: cfg.AvoidKnownUsed,
						Seed: cfg.Seed, Initial: cfg.Initial})
					if err != nil {
						t.Fatalf("fresh: %v", err)
					}
					again, err := reused.Run(cfg)
					if err != nil {
						t.Fatalf("reused: %v", err)
					}
					if fresh.Phases != again.Phases || fresh.Complete != again.Complete {
						t.Fatalf("phases/complete differ: fresh (%d,%v) vs reused (%d,%v)",
							fresh.Phases, fresh.Complete, again.Phases, again.Complete)
					}
					if fresh.Metrics != again.Metrics {
						t.Fatalf("metrics differ:\nfresh:  %v\nreused: %v", fresh.Metrics, again.Metrics)
					}
					for v := range fresh.Coloring {
						if fresh.Coloring[v] != again.Coloring[v] {
							t.Fatalf("node %d: fresh color %d, reused color %d",
								v, fresh.Coloring[v], again.Coloring[v])
						}
					}
				})
			}
		}
	}
}

// rebindConfigs extends kernelConfigs with the inputs a rebound kernel must
// re-size for: preloaded partial Initial colors with ExtraKnown lists, and a
// phase-capped run on a near-tight palette.
func rebindConfigs(g *graph.Graph, seed uint64) []Config {
	n, delta := g.NumNodes(), g.MaxDegree()
	palette := delta*delta + 1
	src := rng.Split(seed, uint64(n))
	initial := coloring.New(n)
	extra := make([][]int32, n)
	for v := 0; v < n; v++ {
		if v%3 == 0 {
			initial[v] = src.Intn(palette)
		}
		for k := src.Intn(4); k > 0; k-- {
			extra[v] = append(extra[v], int32(src.Intn(palette+2)-1))
		}
		src.Intn(3) // unused third draw per node: keeps the layouts drawn above unchanged
	}
	return append(kernelConfigs(g, seed),
		Config{PaletteSize: palette + 3, Scope: ScopeDistance2, Seed: seed,
			Initial: initial, PreloadInitial: true, ExtraKnown: extra},
		Config{PaletteSize: palette + 1, Scope: ScopeDistance2, Seed: seed, MaxPhases: 9},
	)
}

// TestRunnerRebindMatchesFreshRunners: one Runner rebound through a script
// of topologies — growing, shrinking, a star, a single node, an edgeless
// graph, then larger again — returns on every graph exactly the Result
// (coloring, phases, Metrics, flags) and error of a fresh NewRunner, for
// both known tiers, ExtraKnown, PreloadInitial and a phase cap, inline and on
// a worker team. Tier switches between graphs
// of growing size catch a sorted tier sized only once.
func TestRunnerRebindMatchesFreshRunners(t *testing.T) {
	graphs := []*graph.Graph{
		graph.GNP(30, 0.15, 1),
		graph.GNP(90, 0.08, 2),
		graph.GNPWithAverageDegree(160, 7, 3),
		graph.GNP(40, 0.1, 4),
		graph.Star(25),
		graph.MustFromEdges(1, nil),
		graph.MustFromEdges(12, nil),
		graph.Grid(9, 9),
	}
	for _, workers := range []int{1, 4} {
		reused := NewRunner(graphs[0], false, workers)
		for gi, g := range graphs {
			reused.Rebind(g)
			for ci, cfg := range rebindConfigs(g, uint64(gi+1)) {
				for _, tier := range []int{1, -1} {
					fresh := NewRunner(g, false, workers)
					fresh.forceKnownTier = tier
					want, wantErr := fresh.Run(cfg)
					fresh.Close()
					reused.forceKnownTier = tier
					got, gotErr := reused.Run(cfg)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("workers=%d graph=%d cfg=%d tier=%d: rebound (%+v, %v) differs from fresh (%+v, %v)",
							workers, gi, ci, tier, got, gotErr, want, wantErr)
					}
				}
			}
		}
		reused.Close()
	}
}

// A run-to-completion run that cannot complete must surface the exhausted
// phase budget distinctly instead of silently returning incomplete.
func TestPhaseBudgetExhaustedIsSurfaced(t *testing.T) {
	g := graph.Complete(12)
	// One color for a clique's square can never complete.
	res, err := Run(g, Config{PaletteSize: 1, Seed: 1})
	if err == nil {
		t.Fatal("impossible run-to-completion config should return an error")
	}
	if !res.BudgetExhausted {
		t.Error("Result.BudgetExhausted should be set")
	}
	if res.Complete {
		t.Error("run cannot be complete")
	}
	if want := defaultPhaseCap(g.NumNodes()); res.Phases != want {
		t.Errorf("phases = %d, want the backstop %d", res.Phases, want)
	}
	// An explicit MaxPhases cap is an expected partial run: no error.
	res, err = Run(g, Config{PaletteSize: 1, Seed: 1, MaxPhases: 5})
	if err != nil {
		t.Fatalf("explicitly capped run should not error: %v", err)
	}
	if res.Complete || res.BudgetExhausted {
		t.Errorf("capped run: complete=%v budgetExhausted=%v, want false/false", res.Complete, res.BudgetExhausted)
	}
}

// The default backstop scales with log n, not n.
func TestDefaultPhaseCapScalesLogarithmically(t *testing.T) {
	if c := defaultPhaseCap(1); c != 128 {
		t.Errorf("defaultPhaseCap(1) = %d, want 128", c)
	}
	c10k := defaultPhaseCap(10_000)
	if c10k != 64*14+128 {
		t.Errorf("defaultPhaseCap(10000) = %d, want %d", c10k, 64*14+128)
	}
	if c1m := defaultPhaseCap(1_000_000); c1m >= 10_000 {
		t.Errorf("defaultPhaseCap(1e6) = %d; the backstop must stay logarithmic", c1m)
	}
}

// fullTrafficConfig is a one-color palette: every live node proposes color 0
// every phase, all proposals collide at distance 2, no node with a neighbor
// ever adopts, and every phase carries full message traffic — the
// steady-state worst case.
func fullTrafficConfig(seed uint64) Config {
	return Config{PaletteSize: 1, Scope: ScopeDistance2, Seed: seed}
}

// The warmed-up kernel must execute a full-traffic phase without a single
// heap allocation: payloads travel as words, per-node state lives in flat
// arrays, and the completion check is a counter read.
func TestWarmPhaseDoesNotAllocate(t *testing.T) {
	g := graph.GNPWithAverageDegree(2_000, 12, 21)
	r := NewRunner(g, false, 0)
	if err := r.Start(fullTrafficConfig(5)); err != nil {
		t.Fatal(err)
	}
	r.Phase() // warm-up: plane buckets and inboxes grow to steady state
	allocs := testing.AllocsPerRun(10, func() { r.Phase() })
	if allocs > 0 {
		t.Errorf("warmed-up phase allocated %.1f times, want 0", allocs)
	}
}

// benchWarmedTrialPhase is the shared body of BenchmarkTrialPhase and
// TestTrialPhaseAllocFree: one warmed-up trial phase (three simulated
// CONGEST rounds) of the kernel at experiment scale — n = 10k, average
// degree 12, every node proposing every phase.
func benchWarmedTrialPhase(b *testing.B, workers int) {
	g := graph.GNPWithAverageDegree(10_000, 12, 42)
	r := NewRunner(g, false, workers)
	defer r.Close()
	if err := r.Start(fullTrafficConfig(1)); err != nil {
		b.Fatal(err)
	}
	r.Phase() // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Phase()
	}
}

// BenchmarkTrialPhase reports the warmed-up phase cost inline (workers=1)
// and, on a multicore machine, on a GOMAXPROCS-sized team (workers=N); the
// headline assertion — 0 allocs/op — is enforced by TestTrialPhaseAllocFree
// via AllocsPerOp over the same body.
func BenchmarkTrialPhase(b *testing.B) {
	workers := []int{1}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		workers = append(workers, procs)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchWarmedTrialPhase(b, w) })
	}
}

// TestTrialPhaseAllocFree runs BenchmarkTrialPhase's body through the
// benchmark harness, inline and on a worker team, and asserts the acceptance
// criterion directly: a warmed-up phase at n = 10k reports 0 allocs/op.
func TestTrialPhaseAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10k benchmark probe skipped in -short mode")
	}
	for _, workers := range []int{1, 4} {
		res := testing.Benchmark(func(b *testing.B) { benchWarmedTrialPhase(b, workers) })
		switch allocs := res.AllocsPerOp(); {
		case allocs == 0:
		case raceEnabled:
			// Runtime sudogs amortized over a tiny b.N (see race_test.go).
			t.Logf("workers=%d: %d allocs/op over b.N=%d under the race detector (not asserted)", workers, allocs, res.N)
		default:
			t.Errorf("workers=%d: warmed-up trial phase at n=10k: %d allocs/op, want 0", workers, allocs)
		}
	}
}
