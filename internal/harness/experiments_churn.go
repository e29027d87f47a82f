package harness

import (
	"fmt"
	"slices"
	"time"

	"d2color/internal/alg"
	"d2color/internal/baseline"
	"d2color/internal/coloring"
	"d2color/internal/fault"
	"d2color/internal/graph"
	"d2color/internal/repair"
)

// runE12 is the robustness-plane experiment: a valid coloring is subjected
// to epochs of deterministic seeded faults — color corruption, edge and node
// churn, or a mix — at a sweep of per-node event rates, and the incremental
// repair kernel heals it. Each row aggregates one (workload, mix, rate)
// cell's epochs and compares the repair wall clock against rerunning the
// full (1+ε)Δ² baseline on the same post-churn topology.
//
// The measurement columns (dirty, ball, recolored, locality, phases,
// rounds) are byte-deterministic per seed: the injector scripts its faults
// from one SplitMix64 stream and the repair kernel is deterministic, warm or
// fresh. The wall-clock-derived columns (repair/rerun ms, speedup,
// recolored/s) are machine-dependent, so the experiment is registered
// Volatile and excluded from byte-identity comparisons, like E11.
func runE12(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Churn tolerance: incremental repair vs full rerun under fault epochs",
		Claim: "ROADMAP robustness item: repair confined to the dirty distance-2 ball heals corruption and churn at a small fraction of a full rerun's work, with repair locality ≪ 1",
		Columns: []string{"workload", "n", "mix", "rate", "epochs",
			"dirty/ep", "ball/ep", "recolored/ep", "locality",
			"phases/ep", "rounds/ep", "repair ms/ep", "rerun ms/ep", "speedup", "recolored/s"},
	}
	start := time.Now()

	n, epochs := 20_000, 4
	rates := []float64{0.001, 0.01, 0.05}
	if cfg.Quick {
		n, epochs = 2_000, 2
		rates = []float64{0.01}
	}
	mixes := []string{"corrupt", "churn", "mixed"}
	workers := cfg.engineWorkers()

	type family struct {
		name  string
		build func() *graph.Graph
	}
	families := []family{
		{fmt.Sprintf("gnp(avg deg 6, n=%d)", n), func() *graph.Graph {
			return graph.GNPWithAverageDegree(n, 6, int64(cfg.Seed)+int64(n))
		}},
		{fmt.Sprintf("unitdisk(avg deg 6, n=%d)", n), func() *graph.Graph {
			return graph.UnitDisk(n, unitDiskRadius(n, 6), int64(cfg.Seed)+int64(n)+1)
		}},
	}

	for fi, fam := range families {
		g0 := fam.build()
		// One clean starting coloring per family, shared by every cell: the
		// same baseline whose full rerun each epoch is timed against.
		rel, err := baseline.RelaxedD2(g0, baseline.Options{Epsilon: 1}, alg.Engine{}, cfg.Seed+uint64(fi))
		if err != nil {
			return nil, fmt.Errorf("E12 %s: initial coloring: %w", fam.name, err)
		}
		for mi, mix := range mixes {
			for ri, rate := range rates {
				cell := uint64(fi*100 + mi*10 + ri)
				inj := fault.NewInjector(cfg.Seed ^ (0xE12<<16 + cell))
				cur := g0
				// The baseline palette covers every color the working
				// coloring can hold and keeps ample slack for the mild
				// degree drift edge churn causes.
				ses := repair.NewSession(cur, rel.Coloring, repair.Options{
					Palette: rel.PaletteSize,
					Workers: workers,
				})
				var totDirty, totBall, totRecolored, totPhases, totRounds int
				var repairWall, rerunWall time.Duration
				for e := 0; e < epochs; e++ {
					seed := cfg.Seed + cell*1000 + uint64(e)
					events := max(1, int(rate*float64(cur.NumNodes())))
					var dirty []graph.NodeID
					if mix != "corrupt" {
						// Edge + node churn: fold the overlay deltas into a
						// fresh CSR (IDs are stable; removed nodes become
						// isolated), carry the coloring over, and rebind.
						churn := events
						if mix == "mixed" {
							churn = (events + 1) / 2
						}
						o := graph.NewOverlay(cur)
						inj.InsertRandomEdges(o, (churn+1)/2)
						inj.DeleteRandomEdges(o, (churn+1)/2)
						inj.AddWiredNode(o, 3)
						rm, _, rmOK := inj.RemoveRandomNode(o)
						cur = o.Compact()
						cols := slices.Clone(ses.Colors())
						for len(cols) < cur.NumNodes() {
							cols = append(cols, coloring.Uncolored)
						}
						if rmOK {
							cols[rm] = coloring.Uncolored
						}
						ses.Rebind(cur, cols)
					}
					if mix != "churn" {
						corrupt := events
						if mix == "mixed" {
							corrupt = (events + 1) / 2
						}
						dirty = inj.CorruptColors(cur, ses.Colors(), corrupt, fault.TargetUniform, ses.Palette())
					}

					repairStart := time.Now()
					var reports []repair.Report
					if mix == "corrupt" {
						// The corrupted set is known exactly — repair it
						// directly, the detection-free fast path.
						rep, err := ses.Repair(dirty, seed)
						if err != nil {
							return nil, fmt.Errorf("E12 %s/%s/%g epoch %d: %w", fam.name, mix, rate, e, err)
						}
						reports = []repair.Report{rep}
					} else if reports, err = ses.Stabilize(seed, 16); err != nil {
						return nil, fmt.Errorf("E12 %s/%s/%g epoch %d: %w", fam.name, mix, rate, e, err)
					}
					repairWall += time.Since(repairStart)
					if c := ses.Conflicts(); len(c) != 0 {
						return nil, fmt.Errorf("E12 %s/%s/%g epoch %d: %d conflicts survived a fault-free repair", fam.name, mix, rate, e, len(c))
					}
					for _, rep := range reports {
						totDirty += rep.Dirty
						totBall += rep.Ball
						totRecolored += len(rep.Recolored)
						totPhases += rep.Phases
						totRounds += rep.Rounds
					}

					// The comparison point: recolor the post-churn topology
					// from scratch with the same baseline family.
					rerunStart := time.Now()
					if _, err := baseline.RelaxedD2(cur, baseline.Options{Epsilon: 1}, alg.Engine{Workers: workers}, seed); err != nil {
						return nil, fmt.Errorf("E12 %s/%s/%g epoch %d rerun: %w", fam.name, mix, rate, e, err)
					}
					rerunWall += time.Since(rerunStart)
				}
				ses.Close()

				perEp := func(total int) string { return fmt.Sprintf("%.1f", float64(total)/float64(epochs)) }
				locality := 0.0
				if totBall > 0 {
					locality = float64(totRecolored) / float64(totBall)
				}
				repairMS := float64(repairWall.Microseconds()) / 1000 / float64(epochs)
				rerunMS := float64(rerunWall.Microseconds()) / 1000 / float64(epochs)
				speedup, throughput := "n/a", "n/a"
				if repairWall > 0 {
					speedup = fmt.Sprintf("%.1f", float64(rerunWall)/float64(repairWall))
					throughput = fmt.Sprintf("%.0f", float64(totRecolored)/repairWall.Seconds())
				}
				t.AddRow(fam.name, itoa(n), mix, fmt.Sprintf("%g", rate), itoa(epochs),
					perEp(totDirty), perEp(totBall), perEp(totRecolored),
					fmt.Sprintf("%.4f", locality), perEp(totPhases), perEp(totRounds),
					fmt.Sprintf("%.2f", repairMS), fmt.Sprintf("%.2f", rerunMS),
					speedup, throughput)
			}
		}
	}
	t.Elapsed = time.Since(start)
	t.AddNote("rate is fault events per node per epoch; corrupt epochs flip that many colors to a conflicting value, churn epochs split the budget between edge inserts and deletes and add/remove one wired node, mixed epochs split it between the two")
	t.AddNote("corrupt epochs repair the known victim set directly; churn and mixed epochs run the self-stabilization loop (detect conflicts + uncolored nodes, repair, repeat) — fault-free it converges in one iteration")
	t.AddNote("locality = recolored / |N²[dirty]| summed over the cell's repairs: the fraction of the affected ball the repair actually rewrote")
	t.AddNote("rerun ms times the full (1+ε)Δ² baseline on the same post-churn topology; speedup = rerun/repair wall, recolored/s = repair throughput under churn")
	t.AddNote("dirty/ball/recolored/locality/phases/rounds are byte-deterministic per seed; the wall-clock columns are machine-dependent (the experiment is excluded from byte-identity checks)")
	return t, nil
}
