package repair

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"d2color/internal/alg"
	"d2color/internal/baseline"
	"d2color/internal/coloring"
	"d2color/internal/fault"
	"d2color/internal/graph"
	"d2color/internal/trial"
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
// reports are internally consistent — for all three corruption targets.
// Subtests carry a /local level naming the ball-confined repair path, so
// their names stay those of the two-path suite.
func TestRepairCorruption(t *testing.T) {
	for _, fam := range testFamilies() {
		clean := greedyD2(fam.g)
		for _, target := range []fault.Target{fault.TargetUniform, fault.TargetHighDegree, fault.TargetConflictDense} {
			t.Run(fmt.Sprintf("%s/local/%s", fam.name, target), func(t *testing.T) {
				corrupt := slices.Clone(clean)
				victims := fault.NewInjector(31).CorruptColors(fam.g, corrupt, 8, target, 0)
				s := NewSession(fam.g, corrupt, Options{})
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

// TestRepairWarmVsFresh is the property-suite core: a warm session repairing
// epoch after epoch on one kernel produces byte-identical colorings and
// recolored sets to a session built from scratch for each epoch's snapshot.
// This is exactly the Engine.Reset reuse contract surfaced at the repair
// level. Subtests are named <family>/local, like TestRepairCorruption's.
func TestRepairWarmVsFresh(t *testing.T) {
	for _, fam := range testFamilies() {
		t.Run(fam.name+"/local", func(t *testing.T) {
			colors := greedyD2(fam.g)
			warm := NewSession(fam.g, colors, Options{})
			defer warm.Close()
			in := fault.NewInjector(99)
			for epoch := 0; epoch < 4; epoch++ {
				// Corrupt the warm session's current coloring, snapshot
				// it, and repair the same snapshot warm and fresh.
				working := slices.Clone(warm.Colors())
				victims := in.CorruptColors(fam.g, working, 6, fault.TargetUniform, 0)
				seed := uint64(100 + epoch)

				fresh := NewSession(fam.g, working, Options{})
				freshRep, err := fresh.Repair(victims, seed)
				if err != nil {
					t.Fatal(err)
				}

				// Rebind drops the topology-bound scratch, so this loop
				// checks the rebind path across epochs; the no-Rebind
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

// TestRepairWarmKernelReuse pins the no-Rebind path: one session repairing
// many corruption rounds on its warm kernel, rebound to each round's
// subgraph, stays byte-identical to fresh per-round sessions. The subtest
// is named local, like TestRepairCorruption's /local level.
func TestRepairWarmKernelReuse(t *testing.T) {
	t.Run("local", testRepairWarmKernelReuse)
}

func testRepairWarmKernelReuse(t *testing.T) {
	g := graph.GNPWithAverageDegree(250, 7, 11)
	warm := NewSession(g, greedyD2(g), Options{})
	defer warm.Close()
	in := fault.NewInjector(5)
	for round := 0; round < 8; round++ {
		victims := in.CorruptColors(g, warm.colors, 1+3*(round%3), fault.TargetConflictDense, 0)
		snapshot := slices.Clone(warm.Colors())
		seed := uint64(round)

		rep, err := warm.Repair(victims, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSession(g, snapshot, Options{})
		freshRep, err := fresh.Repair(victims, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(warm.Colors(), fresh.Colors()) {
			t.Fatalf("round %d: warm kernel diverged from fresh", round)
		}
		if !reflect.DeepEqual(rep, freshRep) {
			t.Fatalf("round %d: warm report %+v, fresh %+v", round, rep, freshRep)
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

// TestStabilizeUnderPhaseCap: each repair run is capped at one trial phase,
// so single repairs leave dirty nodes uncolored, and the stabilization loop
// still converges to a valid complete coloring over several iterations.
func TestStabilizeUnderPhaseCap(t *testing.T) {
	g := graph.GNPWithAverageDegree(200, 6, 7)
	corrupt := greedyD2(g)
	victims := fault.NewInjector(3).CorruptColors(g, corrupt, 15, fault.TargetUniform, 0)
	if len(victims) != 15 {
		t.Fatalf("fixture: got %d victims", len(victims))
	}
	s := NewSession(g, corrupt, Options{MaxPhases: 1})
	defer s.Close()
	reports, err := s.Stabilize(21, 16)
	if err != nil {
		t.Fatal(err)
	}
	requireValidComplete(t, g, s.Colors())
	if len(reports) < 2 || reports[0].Complete {
		t.Fatalf("a one-phase cap should leave the first repair incomplete and need more iterations; got %d iterations, first complete=%v",
			len(reports), len(reports) > 0 && reports[0].Complete)
	}
	t.Logf("stabilized in %d iterations at one phase per repair", len(reports))
}

// TestRepairCancelStopsLocalKernel: Options.Cancel reaches the local trial
// kernel, so a hook that fires after the session's own pre-run poll stops
// the confined run mid-flight with trial.ErrCanceled, and the session stays
// usable: the next repair, with the hook quiet, heals the coloring.
func TestRepairCancelStopsLocalKernel(t *testing.T) {
	g := graph.GNPWithAverageDegree(300, 6, 5)
	corrupt := greedyD2(g)
	victims := fault.NewInjector(7).CorruptColors(g, corrupt, 20, fault.TargetUniform, 0)
	armed, polls := true, 0
	s := NewSession(g, corrupt, Options{Cancel: func() bool {
		polls++
		return armed && polls > 2 // poll 1 is Repair's own check, poll 2 the first phase's
	}})
	defer s.Close()
	if _, err := s.Repair(victims, 3); !errors.Is(err, trial.ErrCanceled) {
		t.Fatalf("repair with a firing hook: got %v, want trial.ErrCanceled", err)
	}
	armed = false
	if _, err := s.Repair(victims, 3); err != nil {
		t.Fatal(err)
	}
	requireValidComplete(t, g, s.Colors())
}

// TestRepairChangesOnlyDirtyNodes pins the invariant the report is built on:
// over random repairs on warm sessions — dirty sets with duplicates,
// uncolored nodes and phase-capped runs that leave some dirty nodes
// uncolored — no node outside the dirty set ever changes color, Recolored
// is exactly the ascending list of dirty nodes whose color changed, and
// Ball is |N²[D]|.
func TestRepairChangesOnlyDirtyNodes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, fam := range testFamilies() {
		n := fam.g.NumNodes()
		view := graph.NewDist2View(fam.g)
		for _, capped := range []bool{false, true} {
			opts := Options{}
			if capped {
				opts.MaxPhases = 1
			}
			s := NewSession(fam.g, greedyD2(fam.g), opts)
			incomplete := 0
			for epoch := 0; epoch < 25; epoch++ {
				var dirty []graph.NodeID
				for i := r.Intn(12); i >= 0; i-- {
					v := graph.NodeID(r.Intn(n))
					dirty = append(dirty, v, v)
					if r.Intn(4) == 0 {
						s.colors[v] = coloring.Uncolored // a join: the node arrives without a color
					}
				}
				before := slices.Clone(s.Colors())
				rep, err := s.Repair(dirty, uint64(epoch))
				if err != nil {
					t.Fatalf("%s capped=%v epoch %d: %v", fam.name, capped, epoch, err)
				}
				if !rep.Complete {
					incomplete++
				}
				isDirty := make(map[graph.NodeID]bool)
				for _, v := range dirty {
					isDirty[v] = true
				}
				var changed []graph.NodeID
				for v := range before {
					if before[v] == s.Colors()[v] {
						continue
					}
					if !isDirty[graph.NodeID(v)] {
						t.Fatalf("%s capped=%v epoch %d: non-dirty node %d changed color %d -> %d",
							fam.name, capped, epoch, v, before[v], s.Colors()[v])
					}
					changed = append(changed, graph.NodeID(v))
				}
				if !slices.Equal(rep.Recolored, changed) {
					t.Fatalf("%s capped=%v epoch %d: Recolored %v, changed nodes %v",
						fam.name, capped, epoch, rep.Recolored, changed)
				}
				ball := map[graph.NodeID]bool{}
				for v := range isDirty {
					ball[v] = true
					view.ForEachDist2(v, func(w graph.NodeID) bool {
						ball[w] = true
						return true
					})
				}
				if rep.Dirty != len(isDirty) || rep.Ball != len(ball) {
					t.Fatalf("%s capped=%v epoch %d: Dirty=%d Ball=%d, want %d and %d",
						fam.name, capped, epoch, rep.Dirty, rep.Ball, len(isDirty), len(ball))
				}
			}
			s.Close()
			if capped && incomplete == 0 {
				t.Errorf("%s: no capped repair left a dirty node uncolored", fam.name)
			}
		}
	}
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

// TestRepairLocalAllocsScaleWithBall: a warm session allocates
// nothing per repair — its subgraph storage, ExtraKnown lists and rebound
// trial kernel are all reused — so nothing can scale with n. On a 6-regular
// graph at n = 10⁴ and n = 10⁵, a sequence of 16-node dirty sets is run once
// to size every buffer, then replayed: the replay's Repair calls must
// allocate 0 bytes.
func TestRepairLocalAllocsScaleWithBall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10⁵-node fixture")
	}
	for _, n := range []int{10_000, 100_000} {
		g := graph.RandomRegular(n, 6, 9)
		s := NewSession(g, greedyD2(g), Options{ScratchReports: true})
		rng := rand.New(rand.NewSource(5))
		const reps = 20
		dirty := make([][]graph.NodeID, reps)
		for i := range dirty {
			dirty[i] = make([]graph.NodeID, 16)
			for j := range dirty[i] {
				dirty[i][j] = graph.NodeID(rng.Intn(n))
			}
		}
		replay := func() {
			for i, d := range dirty {
				rep, err := s.Repair(d, uint64(i))
				if err != nil || !rep.Complete {
					t.Fatalf("n=%d: repair rep=%+v err=%v", n, rep, err)
				}
			}
		}
		replay() // warm-up: sizes the graph-sized index and every ball-sized buffer
		b := repairAllocBytes(replay)
		requireValidComplete(t, g, s.Colors())
		s.Close()
		if b != 0 {
			t.Errorf("n=%d: replaying %d warm local repairs allocated %d bytes, want 0", n, reps, b)
		}
	}
}

// repairAllocBytes returns the bytes that calls of (*Session).Repair
// allocate while f runs, counted exactly: every allocation is profiled for
// the duration and attributed by its stack. runtime.MemStats cannot tell
// them apart from what the runtime's own goroutines (GC mark workers, the
// scavenger's timer) allocate in the same window.
func repairAllocBytes(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := repairProfiledBytes()
	f()
	return repairProfiledBytes() - before
}

// repairProfiledBytes sums the heap profile's allocated bytes over the
// stacks that pass through (*Session).Repair. A forced GC publishes every
// allocation made before it to the profile unless another cycle ends
// first; the second call covers that case.
func repairProfiledBytes() int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "d2color/internal/repair.(*Session).Repair" {
				total += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestRepairLocalWorkersMatchInline: a session whose kept kernel
// runs on a 4-rank team gives, over a multi-epoch script of corruptions and
// explicit dirty sets, the same Reports and colorings as Workers 1; closing
// it leaves no engine goroutine behind.
func TestRepairLocalWorkersMatchInline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := graph.GNPWithAverageDegree(400, 7, 21)
	colors := greedyD2(g)
	inline := NewSession(g, colors, Options{})
	team := NewSession(g, colors, Options{Workers: 4})
	in := fault.NewInjector(31)
	for epoch := 0; epoch < 12; epoch++ {
		var dirty []graph.NodeID
		if epoch%2 == 0 {
			dirty = in.CorruptColors(g, inline.colors, 1+epoch, fault.TargetConflictDense, 0)
			copy(team.colors, inline.colors)
		} else {
			for v := epoch; v < g.NumNodes(); v += 37 + epoch {
				dirty = append(dirty, graph.NodeID(v))
			}
		}
		seed := uint64(epoch)
		want, err := inline.Repair(dirty, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := team.Repair(dirty, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: Workers 4 report %+v, Workers 1 %+v", epoch, got, want)
		}
		if !slices.Equal(team.Colors(), inline.Colors()) {
			t.Fatalf("epoch %d: Workers 4 coloring diverged from Workers 1", epoch)
		}
		if team.local == nil {
			t.Fatalf("epoch %d: the local kernel was not kept", epoch)
		}
	}
	requireValidComplete(t, g, team.Colors())
	inline.Close()
	team.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline after Close: %d > %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRepairLocalKernelRetention pins the retention bound: the local kernel
// is kept while its palette rows fit in the session graph's CSR footprint
// and dropped after any epoch whose rows would not, with the same repairs
// either way.
func TestRepairLocalKernelRetention(t *testing.T) {
	g := graph.GNPWithAverageDegree(300, 6, 8)
	colors := greedyD2(g)
	dirty := []graph.NodeID{3, 90, 211}
	narrow := NewSession(g, colors, Options{})
	defer narrow.Close()
	wide := NewSession(g, colors, Options{Palette: 1 << 20})
	defer wide.Close()
	for epoch := 0; epoch < 3; epoch++ {
		for _, s := range []*Session{narrow, wide} {
			rep, err := s.Repair(dirty, uint64(epoch))
			if err != nil || !rep.Complete {
				t.Fatalf("palette %d: rep=%+v err=%v", s.Palette(), rep, err)
			}
			requireValidComplete(t, g, s.Colors())
		}
		if narrow.local == nil {
			t.Errorf("epoch %d: palette %d: kernel dropped although its rows fit", epoch, narrow.Palette())
		}
		if wide.local != nil {
			t.Errorf("epoch %d: palette %d: kernel kept although its rows exceed the graph", epoch, wide.Palette())
		}
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
	base, err := baseline.RelaxedD2(g, baseline.Options{Epsilon: 1}, alg.Engine{}, 4)
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
	if _, err := baseline.RelaxedD2(g, baseline.Options{Epsilon: 1}, alg.Engine{}, 9); err != nil {
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

// BenchmarkRepairCorrupt measures one warm repair of 20 corrupted nodes on a
// 2·10⁴-node graph. The session reuses its report buffer and has built its
// kernel before timing starts, so it reports the steady-state cost:
// 0 allocs/op.
func BenchmarkRepairCorrupt(b *testing.B) {
	g := graph.GNPWithAverageDegree(20_000, 8, 13)
	corrupt := greedyD2(g)
	victims := fault.NewInjector(23).CorruptColors(g, corrupt, 20, fault.TargetConflictDense, 0)
	s := NewSession(g, corrupt, Options{ScratchReports: true})
	defer s.Close()
	if _, err := s.Repair(victims, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Repair(victims, uint64(i)); err != nil {
			b.Fatal(err)
		}
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
