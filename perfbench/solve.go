package main

import (
	"fmt"
	"runtime"
	"time"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/trial"
	"d2color/internal/verify"

	// The registry is filled by the algorithm packages' init functions.
	_ "d2color/internal/core"
)

// solveAlgs are the paper's three algorithms, in the order they take turns:
// Thm 1.1 (randomized Δ²+1), Thm 1.2 (deterministic Δ²+1), Thm 1.3
// (polylog (1+ε)Δ²).
var solveAlgs = []string{"rand-improved", "deterministic", "polylog"}

// solveOp is one scheduled solve: which algorithm, with which seed.
type solveOp struct {
	alg  int
	seed uint64
}

// solveSchedule is the measured op sequence of the solve workload: the
// algorithms take turns, each run seeded from the workload seed.
type solveSchedule struct {
	r *splitmix
	i int
}

func newSolveSchedule(seed uint64, purpose string) *solveSchedule {
	return &solveSchedule{r: derive(seed, purpose)}
}

func (s *solveSchedule) next() solveOp {
	op := solveOp{alg: s.i % len(solveAlgs), seed: s.r.next()}
	s.i++
	return op
}

func solveSpec(c config) graph.GeneratorSpec {
	r := derive(c.seed, "solve/graph")
	return graph.GeneratorSpec{Kind: "gnp-avg", N: c.size.solveN, P: c.size.solveDeg, Seed: int64(r.next() >> 1)}
}

// solveStats gathers one solve phase.
type solveStats struct {
	run     [3]samples // alg.Run wall per algorithm
	op      [3]samples // alg.Run + verify per algorithm
	verify  samples
	ops     int
	elapsed time.Duration
	mem     memDelta
}

// congestSum accumulates congest.Metrics over the ops that report them.
type congestSum struct {
	ops                              int
	rounds, charged, messages, words int64
}

func (s *congestSum) add(rounds, charged, messages, words int) {
	s.ops++
	s.rounds += int64(rounds)
	s.charged += int64(charged)
	s.messages += int64(messages)
	s.words += int64(words)
}

func (s congestSum) mean(v int64) float64 { return float64(v) / float64(s.ops) }

// solver runs scheduled solves on one graph and checks every output.
type solver struct {
	g       *graph.Graph
	algs    []alg.Algorithm
	checker *verify.Checker
	rep     *report
	tr      *tracer
	// record, when set, receives every solve's congest counts in order (the
	// determinism test reads it).
	record func(op solveOp, m [4]int)
}

// solve runs one op and returns its alg.Run and verify wall times, and
// whether it succeeded and passed its checks.
func (s *solver) solve(id uint64, op solveOp) (run, check time.Duration, ok bool) {
	a := s.algs[op.alg]
	eng := alg.Engine{}
	var built []*trial.Runner
	if s.tr != nil {
		// Build a fresh kernel per call, as the default path does, so the
		// build is timed without changing the work.
		eng.Kernel = func() *trial.Runner {
			t0 := time.Now()
			k := trial.NewRunner(s.g, false, 0)
			s.tr.add(id, "trial.build", "alg.run", t0, time.Now())
			built = append(built, k)
			return k
		}
	}
	t0 := time.Now()
	res, err := a.Run(s.g, eng, op.seed)
	t1 := time.Now()
	for _, k := range built {
		k.Close()
	}
	s.rep.attempted++
	if err != nil {
		s.rep.fail("%s seed %d: %v", a.Name(), op.seed, err)
		return 0, 0, false
	}
	vr := s.checker.CheckD2(s.g, res.Coloring, res.PaletteSize)
	t2 := time.Now()
	if s.tr != nil {
		s.tr.add(id, "alg.run", "op", t0, t1)
		s.tr.add(id, "verify.check", "op", t1, t2)
	}
	if !vr.Valid {
		s.rep.fail("%s seed %d: invalid coloring: %v", a.Name(), op.seed, vr.Error())
		return 0, 0, false
	}
	if used := res.ColorsUsed(); used > res.PaletteSize {
		s.rep.fail("%s seed %d: %d colors used, palette %d", a.Name(), op.seed, used, res.PaletteSize)
		return 0, 0, false
	}
	if s.record != nil {
		m := res.Metrics
		s.record(op, [4]int{m.Rounds, m.ChargedRounds, m.MessagesSent, m.WordsSent})
	}
	return t1.Sub(t0), t2.Sub(t1), true
}

// phase runs scheduled solves for d, and past it until every reported
// median has at least ten samples beyond it. The forced collections are
// outside the timed solves but inside the phase, so ops_per_s pays for them.
func (s *solver) phase(sched *solveSchedule, d time.Duration, minPerAlg int) solveStats {
	var st solveStats
	resetPeakRSS()
	before := memSnapshot()
	start := time.Now()
	for id := uint64(0); ; id++ {
		if time.Since(start) >= d && st.enough(minPerAlg) {
			break
		}
		// Every solve starts from a collected heap, so neither its GC work
		// nor the peak RSS depends on the garbage of the solves before it.
		runtime.GC()
		op := sched.next()
		t0 := time.Now()
		run, check, ok := s.solve(id, op)
		t1 := time.Now()
		if !ok {
			continue
		}
		s.tr.add(id, "op", "", t0, t1)
		st.run[op.alg] = append(st.run[op.alg], run)
		st.op[op.alg] = append(st.op[op.alg], t1.Sub(t0))
		st.verify = append(st.verify, check)
		st.ops++
	}
	st.elapsed = time.Since(start)
	st.mem = memSince(before)
	return st
}

func (st *solveStats) enough(min int) bool {
	for _, r := range st.run {
		if len(r) < min {
			return false
		}
	}
	return true
}

func newSolver(g *graph.Graph, rep *report) (*solver, error) {
	s := &solver{g: g, checker: verify.NewChecker(), rep: rep}
	for _, name := range solveAlgs {
		a, ok := alg.Get(name)
		if !ok {
			return nil, fmt.Errorf("algorithm %q is not registered", name)
		}
		s.algs = append(s.algs, a)
	}
	return s, nil
}

func runSolve(c config) (*report, error) {
	rep := &report{workload: c.workload}
	spec := solveSpec(c)

	// Set-up: graph generation plus one warm-up solve per algorithm,
	// repeated; setup_s is the median.
	var g *graph.Graph
	var setupS []float64
	var generate samples
	var s *solver
	for i := 0; i < c.setups; i++ {
		// Drop the previous set-up's graph first, so set-ups never overlap
		// in memory and the peak RSS does not depend on GC timing.
		g, s = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = spec.Generate(); err != nil {
			return nil, err
		}
		generate = append(generate, time.Since(t0))
		if s, err = newSolver(g, rep); err != nil {
			return nil, err
		}
		warm := newSolveSchedule(c.seed, fmt.Sprintf("solve/warm/%d", i))
		for range solveAlgs {
			s.solve(0, warm.next())
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	c.logf("solve: n=%d m=%d Δ=%d, set-up %.3fs", g.NumNodes(), g.NumEdges(), g.MaxDegree(), medianOf(setupS))

	minPerAlg := need(0.5)
	st := s.phase(newSolveSchedule(c.seed, "solve/ops"), c.duration(), minPerAlg)
	rep.e2e = []metric{
		{name: "setup_s", value: medianOf(setupS), unit: "s", samples: len(setupS), meaning: "median set-up: graph generation + one solve per algorithm"},
		{name: "ops_per_s", value: float64(st.ops) / st.elapsed.Seconds(), unit: "1/s", samples: st.ops, meaning: "verified solves per second"},
		{name: "peak_rss_mib", value: peakRSSMiB(), unit: "MiB", samples: st.ops, meaning: "VmHWM over the measured phase (high-water of all its ops)"},
		latencyMetric("verify_p50_ms", "verify.Checker.CheckD2 of each solve's coloring, p50", st.verify, 0.5),
		latencyMetric("lat_a_ms", "rand-improved alg.Run, p50", st.run[0], 0.5),
		latencyMetric("lat_b_ms", "deterministic alg.Run, p50", st.run[1], 0.5),
		latencyMetric("lat_c_ms", "polylog alg.Run, p50", st.run[2], 0.5),
	}
	if !c.trace {
		return rep, nil
	}

	// Traced phase: the same loop with spans around every layer call.
	s.tr = newTracer()
	var congestAll congestSum
	var perAlg [3]congestSum
	s.record = func(op solveOp, m [4]int) {
		congestAll.add(m[0], m[1], m[2], m[3])
		perAlg[op.alg].add(m[0], m[1], m[2], m[3])
	}
	tst := s.phase(newSolveSchedule(c.seed, "solve/ops"), c.duration(), minPerAlg)
	spans := s.tr.byName()
	var tables []opTable
	var build, check samples
	var kernelSum, frameSum time.Duration
	for _, sp := range spans["trial.build"] {
		build = append(build, sp.dur())
	}
	for a, name := range solveAlgs {
		t := opTable{kind: name, untraced: st.op[a]}
		var runSelf, buildSelf, checkSelf, opSelf samples
		for id, op := range spans["op"] {
			if int(id)%len(solveAlgs) != a {
				continue
			}
			run, vc := spans["alg.run"][id], spans["verify.check"][id]
			b := time.Duration(0)
			if sp, ok := spans["trial.build"][id]; ok {
				b = sp.dur()
				buildSelf = append(buildSelf, b)
			}
			t.traced = append(t.traced, op.dur())
			runSelf = append(runSelf, run.dur()-b)
			checkSelf = append(checkSelf, vc.dur())
			opSelf = append(opSelf, op.dur()-run.dur()-vc.dur())
			kernelSum += run.dur() + vc.dur()
			frameSum += op.dur() - run.dur() - vc.dur()
		}
		check = append(check, checkSelf...)
		t.layers = append(t.layers, layerRow{"alg.run (" + name + ")", runSelf})
		if len(buildSelf) > 0 {
			t.layers = append(t.layers, layerRow{"trial.build", buildSelf})
		}
		t.layers = append(t.layers, layerRow{"verify.check", checkSelf}, layerRow{"op (benchmark loop)", opSelf})
		tables = append(tables, t)
	}
	rep.table = append(rep.table, fmt.Sprintf("layer table (solve, traced phase %d ops, %.1fs):", tst.ops, tst.elapsed.Seconds()))
	for a, t := range tables {
		rep.table = append(rep.table, t.render()...)
		pa := perAlg[a]
		rep.table = append(rep.table, fmt.Sprintf("    congest per run: rounds %.1f, charged rounds %.1f, messages %.0f, words %.0f (runs=%d)",
			pa.mean(pa.rounds), pa.mean(pa.charged), pa.mean(pa.messages), pa.mean(pa.words), pa.ops))
	}
	residual, overhead := tableSummary(tables)
	rep.layers = layerMetrics(layerInputs{
		generate: generate, build: build, check: check,
		kernelMs: ms(kernelSum) / float64(tst.ops), frameMs: ms(frameSum) / float64(tst.ops), ops: tst.ops,
		residualPct: residual, overheadPct: overhead,
		congest: congestAll, mem: st.mem, memOps: st.ops,
	})
	if path, err := s.tr.write(c.outDir, c.workload, c.seed); err != nil {
		return nil, err
	} else if path != "" {
		rep.table = append(rep.table, "spans written to "+path)
	}
	return rep, nil
}
