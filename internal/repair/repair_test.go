package repair

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"d2color/internal/baseline"
	"d2color/internal/coloring"
	"d2color/internal/fault"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

// greedyD2 builds a valid complete distance-2 coloring as the pre-churn
// fixture.
func greedyD2(g *graph.Graph) coloring.Coloring {
	view := graph.NewDist2View(g)
	c := coloring.New(g.NumNodes())
	used := make(map[int]bool)
	for v := 0; v < g.NumNodes(); v++ {
		clear(used)
		view.ForEachDist2(graph.NodeID(v), func(w graph.NodeID) bool {
			if c[w] != coloring.Uncolored {
				used[c[w]] = true
			}
			return true
		})
		col := 0
		for used[col] {
			col++
		}
		c[v] = col
	}
	return c
}

func requireValidComplete(t *testing.T, g *graph.Graph, c coloring.Coloring) {
	t.Helper()
	if rep := verify.CheckD2(g, c, 0); !rep.Valid {
		t.Fatalf("coloring invalid after repair: %v", rep.Error())
	}
	for v, col := range c {
		if col == coloring.Uncolored {
			t.Fatalf("node %d left uncolored", v)
		}
	}
}

func testFamilies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(300, 6, 3)},
		{"unitdisk", graph.UnitDisk(200, 0.12, 5)},
		{"grid", graph.Grid(15, 16)},
		{"star", graph.Star(40)},
	}
}

// TestRepairCorruption: corrupt k colors, repair, and check the repaired
// coloring is valid and complete, only dirty nodes were touched, and the
// reports are internally consistent — for both confinement modes and all
// three corruption targets.
func TestRepairCorruption(t *testing.T) {
	for _, fam := range testFamilies() {
		clean := greedyD2(fam.g)
		for _, mode := range []Mode{ModeLocal, ModeGlobal} {
			for _, target := range []fault.Target{fault.TargetUniform, fault.TargetHighDegree, fault.TargetConflictDense} {
				t.Run(fmt.Sprintf("%s/%s/%s", fam.name, mode, target), func(t *testing.T) {
					corrupt := slices.Clone(clean)
					victims := fault.NewInjector(31).CorruptColors(fam.g, corrupt, 8, target, 0)
					s := NewSession(fam.g, corrupt, Options{Mode: mode})
					defer s.Close()
					rep, err := s.Repair(victims, 7)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Complete {
						t.Fatal("repair reported incomplete without faults or phase caps")
					}
					requireValidComplete(t, fam.g, s.Colors())
					if rep.Dirty != len(victims) {
						t.Fatalf("Dirty = %d, want %d", rep.Dirty, len(victims))
					}
					for _, v := range rep.Recolored {
						if _, ok := slices.BinarySearch(victims, v); !ok {
							t.Fatalf("non-dirty node %d was recolored", v)
						}
					}
					for v := 0; v < fam.g.NumNodes(); v++ {
						if _, dirty := slices.BinarySearch(victims, graph.NodeID(v)); !dirty && s.Colors()[v] != clean[v] {
							t.Fatalf("fixed node %d changed color %d -> %d", v, clean[v], s.Colors()[v])
						}
					}
					if rep.Locality < 0 || rep.Locality > 1 {
						t.Fatalf("locality %f outside [0,1] for a dirty-only repair", rep.Locality)
					}
					if rep.Rounds != 3*rep.Phases {
						t.Fatalf("Rounds = %d, want 3·Phases = %d", rep.Rounds, 3*rep.Phases)
					}
				})
			}
		}
	}
}

// TestRepairWarmVsFresh is the property-suite core: a warm session repairing
// epoch after epoch on one kernel produces byte-identical colorings and
// recolored sets to a session built from scratch for each epoch's snapshot.
// This is exactly the Engine.Reset reuse contract surfaced at the repair
// level.
func TestRepairWarmVsFresh(t *testing.T) {
	for _, fam := range testFamilies() {
		for _, mode := range []Mode{ModeLocal, ModeGlobal} {
			t.Run(fmt.Sprintf("%s/%s", fam.name, mode), func(t *testing.T) {
				colors := greedyD2(fam.g)
				warm := NewSession(fam.g, colors, Options{Mode: mode})
				defer warm.Close()
				in := fault.NewInjector(99)
				for epoch := 0; epoch < 4; epoch++ {
					// Corrupt the warm session's current coloring, snapshot
					// it, and repair the same snapshot warm and fresh.
					working := slices.Clone(warm.Colors())
					victims := in.CorruptColors(fam.g, working, 6, fault.TargetUniform, 0)
					seed := uint64(100 + epoch)

					fresh := NewSession(fam.g, working, Options{Mode: mode})
					freshRep, err := fresh.Repair(victims, seed)
					if err != nil {
						t.Fatal(err)
					}

					// Rebind drops the global kernel, so this loop checks
					// scratch reuse across epochs; the no-Rebind warm-kernel
					// path is pinned by TestRepairWarmKernelReuse below.
					warm.Rebind(fam.g, working)
					warmRep, err := warm.Repair(victims, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(warm.Colors(), fresh.Colors()) {
						t.Fatalf("epoch %d: warm and fresh colorings diverge", epoch)
					}
					if !slices.Equal(warmRep.Recolored, freshRep.Recolored) {
						t.Fatalf("epoch %d: recolored sets diverge: %v vs %v", epoch, warmRep.Recolored, freshRep.Recolored)
					}
					if warmRep.Metrics != freshRep.Metrics {
						t.Fatalf("epoch %d: metrics diverge:\nwarm  %+v\nfresh %+v", epoch, warmRep.Metrics, freshRep.Metrics)
					}
					fresh.Close()
				}
			})
		}
	}
}

// TestRepairWarmKernelReuse pins the no-Rebind path: one global-mode session
// repairing many corruption rounds on one warm kernel stays byte-identical
// to fresh per-round sessions — without ever rebuilding its engine.
func TestRepairWarmKernelReuse(t *testing.T) {
	g := graph.GNPWithAverageDegree(250, 7, 11)
	colors := greedyD2(g)
	warm := NewSession(g, colors, Options{Mode: ModeGlobal})
	defer warm.Close()
	in := fault.NewInjector(5)
	for round := 0; round < 5; round++ {
		victims := in.CorruptColors(g, warm.colors, 5, fault.TargetConflictDense, 0)
		snapshot := slices.Clone(warm.Colors())
		seed := uint64(round)

		rep, err := warm.Repair(victims, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSession(g, snapshot, Options{Mode: ModeGlobal})
		freshRep, err := fresh.Repair(victims, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(warm.Colors(), fresh.Colors()) {
			t.Fatalf("round %d: warm kernel diverged from fresh", round)
		}
		if !slices.Equal(rep.Recolored, freshRep.Recolored) || rep.Metrics != freshRep.Metrics {
			t.Fatalf("round %d: warm transcript diverged from fresh", round)
		}
		fresh.Close()
		requireValidComplete(t, g, warm.Colors())
	}
}

// TestChurnStabilize drives overlay churn scripts — edge inserts and
// deletes, node arrivals and departures — through Compact and Rebind, then
// lets the self-stabilization loop detect and absorb the damage, across
// families and seeds.
func TestChurnStabilize(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(200, 6, 3)},
		{"unitdisk", graph.UnitDisk(150, 0.14, 5)},
	}
	for _, fam := range families {
		for _, seed := range []uint64{1, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", fam.name, seed), func(t *testing.T) {
				g := fam.g
				colors := greedyD2(g)
				s := NewSession(g, colors, Options{})
				defer s.Close()
				in := fault.NewInjector(seed)
				for epoch := 0; epoch < 3; epoch++ {
					o := graph.NewOverlay(g)
					in.InsertRandomEdges(o, 12)
					in.DeleteRandomEdges(o, 8)
					in.AddWiredNode(o, 3)
					removed, _, _ := in.RemoveRandomNode(o)
					g = o.Compact()

					// Carry colors across the compaction: IDs are preserved,
					// new nodes arrive uncolored, departed nodes are wiped.
					next := coloring.New(g.NumNodes())
					for v := range next {
						if v < len(s.Colors()) && graph.NodeID(v) != removed {
							next[v] = s.Colors()[v]
						} else {
							next[v] = coloring.Uncolored
						}
					}
					s.Rebind(g, next)
					reports, err := s.Stabilize(seed+uint64(epoch), 0)
					if err != nil {
						t.Fatalf("epoch %d: %v", epoch, err)
					}
					requireValidComplete(t, g, s.Colors())
					if len(reports) > 1 {
						t.Errorf("epoch %d: fault-free stabilization took %d iterations, want <= 1", epoch, len(reports))
					}
				}
			})
		}
	}
}

// TestStabilizeUnderMessageLoss: repair runs themselves execute on a lossy
// network (bounded phases per iteration), and the stabilization loop still
// converges to a valid complete coloring.
func TestStabilizeUnderMessageLoss(t *testing.T) {
	g := graph.GNPWithAverageDegree(200, 6, 7)
	corrupt := greedyD2(g)
	victims := fault.NewInjector(3).CorruptColors(g, corrupt, 15, fault.TargetUniform, 0)
	if len(victims) != 15 {
		t.Fatalf("fixture: got %d victims", len(victims))
	}
	s := NewSession(g, corrupt, Options{
		MaxPhases: 6,
		Faults:    &fault.DropPlan{Seed: 8, P: 0.05},
	})
	defer s.Close()
	reports, err := s.Stabilize(21, 16)
	if err != nil {
		t.Fatal(err)
	}
	requireValidComplete(t, g, s.Colors())
	t.Logf("stabilized in %d iterations under 5%% message loss", len(reports))
}

func TestRepairEdgeCases(t *testing.T) {
	g := graph.Path(6)
	colors := greedyD2(g)
	s := NewSession(g, colors, Options{})
	defer s.Close()
	rep, err := s.Repair(nil, 1)
	if err != nil || !rep.Complete || rep.Dirty != 0 {
		t.Fatalf("empty dirty set: rep=%+v err=%v", rep, err)
	}
	if _, err := s.Repair([]graph.NodeID{99}, 1); err == nil {
		t.Fatal("out-of-range dirty node was accepted")
	}
	// Duplicates collapse.
	rep, err = s.Repair([]graph.NodeID{2, 2, 2}, 1)
	if err != nil || rep.Dirty != 1 {
		t.Fatalf("duplicated dirty node: rep=%+v err=%v", rep, err)
	}
	requireValidComplete(t, g, s.Colors())
}

// TestRepairLocalAllocsScaleWithBall: once a session has run its first
// local repair, a ModeLocal repair of 16 dirty nodes allocates only
// ball-sized scratch — on a 6-regular graph (same Δ, hence the same palette
// and ball shape, at both sizes) the bytes per repair at n = 10⁵ stay within
// 2× of those at n = 10⁴.
func TestRepairLocalAllocsScaleWithBall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10⁵-node fixture")
	}
	bytesPerRepair := func(n int) float64 {
		g := graph.RandomRegular(n, 6, 9)
		s := NewSession(g, greedyD2(g), Options{Mode: ModeLocal, ScratchReports: true})
		defer s.Close()
		rng := rand.New(rand.NewSource(5))
		dirty := make([]graph.NodeID, 16)
		repair := func(seed uint64) {
			for i := range dirty {
				dirty[i] = graph.NodeID(rng.Intn(n))
			}
			rep, err := s.Repair(dirty, seed)
			if err != nil || !rep.Complete {
				t.Fatalf("n=%d: repair rep=%+v err=%v", n, rep, err)
			}
		}
		repair(0) // warm-up: sizes the session's graph-sized index once
		const reps = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= reps; i++ {
			repair(uint64(i))
		}
		runtime.ReadMemStats(&after)
		requireValidComplete(t, g, s.Colors())
		return float64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	small, large := bytesPerRepair(10_000), bytesPerRepair(100_000)
	t.Logf("bytes per 16-dirty local repair: n=10⁴ %.0f, n=10⁵ %.0f", small, large)
	if large > 2*small {
		t.Errorf("local repair allocates %.0f B at n=10⁵ vs %.0f B at n=10⁴: more than 2×, so something still scales with n", large, small)
	}
}

// TestRepairLocalityGate is the acceptance gate: on a sparse 10⁵-node graph
// with 100 adversarially corrupted colors, incremental repair must stay
// local (locality ratio ≤ 2×, and in fact recolors only dirty nodes) and
// complete in < 5% of the wall time of a full rerun of the relaxed
// (1+ε)Δ²-palette baseline; the whole pipeline must be byte-deterministic
// per seed across two runs.
func TestRepairLocalityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("locality gate runs the full 10⁵-node scenario; skipped in -short")
	}
	const n = 100_000
	g := graph.GNPWithAverageDegree(n, 8, 17)
	base, err := baseline.RelaxedD2(g, baseline.Options{Epsilon: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		victims   []graph.NodeID
		recolored []graph.NodeID
		colors    coloring.Coloring
		locality  float64
		ball      int
		wall      time.Duration
	}
	runOnce := func() outcome {
		corrupt := slices.Clone(base.Coloring)
		victims := fault.NewInjector(23).CorruptColors(g, corrupt, 100, fault.TargetConflictDense, 0)
		s := NewSession(g, corrupt, Options{})
		defer s.Close()
		start := time.Now()
		rep, err := s.Repair(victims, 9)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete {
			t.Fatal("gate repair incomplete")
		}
		return outcome{victims, rep.Recolored, slices.Clone(s.Colors()), rep.Locality, rep.Ball, wall}
	}

	first := runOnce()
	second := runOnce()

	// Determinism: byte-identical dirty sets and repair transcripts.
	if !slices.Equal(first.victims, second.victims) {
		t.Fatal("fault injector dirty sets diverge across two same-seed runs")
	}
	if !slices.Equal(first.recolored, second.recolored) || !slices.Equal(first.colors, second.colors) {
		t.Fatal("repair transcripts diverge across two same-seed runs")
	}

	// Locality: the repair touches O(dirty d2-ball) nodes.
	if first.locality > 2.0 {
		t.Fatalf("locality ratio %.3f exceeds the 2x gate", first.locality)
	}
	if len(first.recolored) > len(first.victims) {
		t.Fatalf("recolored %d nodes for %d dirty — repair escaped the dirty set", len(first.recolored), len(first.victims))
	}
	if rep := verify.CheckD2(g, first.colors, 0); !rep.Valid {
		t.Fatalf("gate repair produced an invalid coloring: %v", rep.Error())
	}

	// Wall time: < 5% of a full rerun of the relaxed baseline.
	start := time.Now()
	if _, err := baseline.RelaxedD2(g, baseline.Options{Epsilon: 1, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	rerun := time.Since(start)
	repairWall := min(first.wall, second.wall)
	t.Logf("gate: ball=%d locality=%.4f repair=%v rerun=%v ratio=%.2f%%",
		first.ball, first.locality, repairWall, rerun, 100*float64(repairWall)/float64(rerun))
	if float64(repairWall) >= 0.05*float64(rerun) {
		// The wall-clock half of the gate hard-fails only where the run owns
		// the machine (the dedicated CI job sets D2_REPAIR_GATE=1), mirroring
		// the multicore and memory gates: a loaded developer machine must
		// never flake a local sweep. Locality, determinism and validity above
		// are timing-free and always enforced.
		if os.Getenv("D2_REPAIR_GATE") != "" {
			t.Fatalf("repair took %v, not < 5%% of the %v full rerun", repairWall, rerun)
		}
		t.Logf("advisory: repair %v is not < 5%% of the %v rerun (set D2_REPAIR_GATE=1 to enforce)", repairWall, rerun)
	}
}

func BenchmarkRepairCorrupt(b *testing.B) {
	g := graph.GNPWithAverageDegree(20_000, 8, 13)
	base := greedyD2(g)
	for _, mode := range []Mode{ModeLocal, ModeGlobal} {
		b.Run(mode.String(), func(b *testing.B) {
			corrupt := slices.Clone(base)
			victims := fault.NewInjector(23).CorruptColors(g, corrupt, 20, fault.TargetConflictDense, 0)
			s := NewSession(g, corrupt, Options{Mode: mode})
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Repair(victims, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChurnEpoch(b *testing.B) {
	g0 := graph.GNPWithAverageDegree(20_000, 8, 13)
	base := greedyD2(g0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSession(g0, base, Options{})
		in := fault.NewInjector(uint64(i))
		b.StartTimer()
		o := graph.NewOverlay(g0)
		in.InsertRandomEdges(o, 50)
		in.DeleteRandomEdges(o, 50)
		g := o.Compact()
		next := coloring.New(g.NumNodes())
		copy(next, s.Colors())
		s.Rebind(g, next)
		if _, err := s.Stabilize(uint64(i), 0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
