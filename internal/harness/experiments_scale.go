package harness

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/sweep"
	"d2color/internal/verify"
)

// resetPeakRSS resets the kernel's resident-set high-water mark (writing 5
// to /proc/self/clear_refs), so the VmHWM read after a workload cell
// reflects that cell alone. It reports whether the reset took effect;
// where it does not (non-Linux, locked-down /proc), VmHWM readings are
// monotone over the process lifetime — E11 runs its points in ascending
// size order so the readings stay meaningful even then.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB, or
// 0 when the platform does not expose /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssString formats a peak-RSS reading, "n/a" where unavailable.
func rssString(mb float64) string {
	if mb <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", mb)
}

// bytesPerNodeString converts a peak-RSS reading into resident bytes per
// node, the scale experiment's memory-diet figure of merit.
func bytesPerNodeString(mb float64, n int) string {
	if mb <= 0 || n <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f", mb*1024*1024/float64(n))
}

// unitDiskRadius returns the radius giving an expected average degree of
// avgDeg on n uniform points (E[deg] ≈ n·π·r², ignoring boundary effects).
func unitDiskRadius(n int, avgDeg float64) float64 {
	return math.Sqrt(avgDeg / (math.Pi * float64(n)))
}

// runE11 is the scale experiment the word-parallel palette kernels and the
// 32-bit node plane unlock: sparse GNP and unit-disk workloads at n up to
// 10⁷, colored by the sequential greedy floor and the simulated (1+ε)Δ²
// relaxed algorithm, with throughput (nodes colored per wall second),
// peak-RSS and resident-bytes-per-node columns. Unlike E1–E10 the
// wall-clock and RSS columns are inherently machine- and
// scheduling-dependent — the experiment is registered Volatile and excluded
// from byte-identity comparisons; the n/m/Δ/palette/colors columns remain
// deterministic per seed.
//
// Every (point, algorithm, engine) cell runs as its own single-cell sweep
// (Jobs forced to 1) with the point's graph built once and shared: before
// each cell the heap is scavenged (debug.FreeOSMemory) and the VmHWM
// high-water mark reset, so each row's peak RSS covers the resident graph
// plus that cell's kernel alone. Every sample coloring is re-verified
// distance-2 valid outside the timed region — round-count validation at true
// scale.
func runE11(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Scale ceiling: throughput and memory of the 32-bit kernels up to n = 10⁷",
		Claim: "ROADMAP north star: the 32-bit node plane keeps sparse workloads at n = 10⁷ within commodity memory while coloring millions of nodes per second (greedy) / simulating every CONGEST message at scale (relaxed)",
		Columns: []string{"workload", "n", "m", "Δ", "algorithm", "workers", "palette", "colors used",
			"wall s", "colors/s", "peak RSS MiB", "B/node"},
	}
	type scalePoint struct {
		name  string
		n     int
		build func() (*graph.Graph, error)
	}
	gnp := func(n int) scalePoint {
		return scalePoint{name: fmt.Sprintf("gnp(avg deg 8, n=%d)", n), n: n, build: func() (*graph.Graph, error) {
			return graph.GNPWithAverageDegree(n, 8, int64(cfg.Seed)+int64(n)), nil
		}}
	}
	disk := func(n int) scalePoint {
		r := unitDiskRadius(n, 8)
		return scalePoint{name: fmt.Sprintf("unitdisk(r=%.2g, n=%d)", r, n), n: n, build: func() (*graph.Graph, error) {
			return graph.UnitDisk(n, r, int64(cfg.Seed)+int64(n)+1), nil
		}}
	}
	points := []scalePoint{gnp(100_000), disk(100_000), gnp(1_000_000), disk(1_000_000), gnp(10_000_000)}
	if cfg.Quick {
		// The short-mode smoke: the same pipeline at n = 50k, small enough
		// for CI to exercise the scale path on every push.
		points = []scalePoint{gnp(50_000), disk(50_000)}
	}

	// Greedy is a zero-communication sequential scan (no engine to vary);
	// the simulated relaxed algorithm runs on the worker axis — the inline
	// reference (1) and a GOMAXPROCS-sized team, the pair the multicore gate
	// compares at this scale. Every worker count is byte-deterministic, so
	// the team row may only differ in the wall-clock columns. At n = 10⁷ the
	// axis is restricted to inline: the team row would re-answer a question
	// the 10⁶ points already answer, at ten times the wall-clock.
	type cellSpec struct {
		algName string
		engine  sweep.EngineAxis
	}
	cellsFor := func(n int) []cellSpec {
		cells := []cellSpec{
			{"greedy", sweep.EngineAxis{Name: "1"}},
			{"relaxed", sweep.EngineAxis{Name: "1"}},
		}
		if n <= 1_000_000 {
			procs := runtime.GOMAXPROCS(0)
			cells = append(cells, cellSpec{"relaxed", sweep.EngineAxis{Name: strconv.Itoa(procs), Engine: alg.Engine{Workers: procs}}})
		}
		return cells
	}

	perCellRSS := true
	for _, sp := range points {
		g, err := sp.build()
		if err != nil {
			return nil, err
		}
		pt := sweep.Point{Label: sp.name, Build: func() (*graph.Graph, string, error) { return g, "", nil }}
		for _, cs := range cellsFor(sp.n) {
			// Scavenge the previous cell's garbage back to the OS before
			// resetting the high-water mark, so this cell's reading starts
			// from the resident graph rather than dead kernel pages.
			debug.FreeOSMemory()
			perCellRSS = resetPeakRSS() && perCellRSS
			spec := sweep.Spec{
				Name:       "E11/" + sp.name,
				Points:     []sweep.Point{pt},
				Algorithms: []sweep.AlgAxis{{Alg: alg.MustGet(cs.algName), Reps: 1}},
				Engines:    []sweep.EngineAxis{cs.engine},
				Seed:       cfg.Seed,
			}
			grid, err := sweep.Run(spec, sweep.Options{Jobs: 1})
			if err != nil {
				return nil, err
			}
			t.Elapsed += grid.Elapsed
			rss := peakRSSMB()
			c := grid.Cell(0, 0, 0)
			if c.Sample == nil {
				return nil, fmt.Errorf("E11 %s/%s: sweep returned no sample coloring", sp.name, cs.algName)
			}
			if err := verify.CheckD2(g, c.Sample.Coloring, c.Sample.PaletteSize).Error(); err != nil {
				return nil, fmt.Errorf("E11 %s/%s/%s: sample coloring failed distance-2 verification: %w",
					sp.name, cs.algName, cs.engine.Name, err)
			}
			secs := c.Mean(sweep.MeasureSeconds)
			throughput := 0.0
			if secs > 0 {
				throughput = float64(g.NumNodes()) / secs
			}
			t.AddRow(c.Label, itoa(g.NumNodes()), itoa(g.NumEdges()), itoa(g.MaxDegree()),
				c.Alg.Name(), cs.engine.Name, itoa(c.Alg.PaletteBound(g)),
				itoa(int(c.Mean(sweep.MeasureColors))),
				fmt.Sprintf("%.2f", secs), fmt.Sprintf("%.0f", throughput),
				rssString(rss), bytesPerNodeString(rss, g.NumNodes()))
		}
	}
	if perCellRSS {
		t.AddNote("cells run sequentially; the heap is scavenged and the RSS high-water mark (VmHWM) reset via /proc/self/clear_refs before each cell, so every peak-RSS/B-per-node reading covers the resident graph plus that cell's kernel alone")
	} else {
		t.AddNote("cells run sequentially in ascending size; the platform does not allow resetting VmHWM, so each peak-RSS reading is the monotone process high-water mark up to that cell")
	}
	t.AddNote("wall-clock, RSS and B/node columns are machine-dependent (the experiment is excluded from byte-identity checks); n, m, Δ, palette and colors are deterministic per seed")
	t.AddNote("colorings are held as one int per node (8 B/node) and every sample is re-verified distance-2 valid outside the timed region")
	t.AddNote("relaxed simulates every CONGEST message of the (1+ε)Δ² trial algorithm; greedy is the zero-communication sequential floor")
	t.AddNote("workers axis (relaxed rows): the inline engine (1) vs a worker team of GOMAXPROCS; every worker count is byte-identical, so only the wall-clock columns may differ. The n = 10⁷ point runs inline only to bound single-run wall-clock")
	return t, nil
}
