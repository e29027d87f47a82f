package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"d2color/internal/graph"
)

// smokeSizes shrinks every workload so that the whole suite runs in seconds.
var smokeSizes = sizes{
	solveN: 600, solveDeg: 6,
	querySessions: 3, queryN: 300, queryM: 3,
	churnN: 2000, churnDeg: 6,
	warmOps: 30,
}

func smokeConfig(workload string, seed uint64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 0.05, trace: trace, size: smokeSizes, setups: 2}
}

type solveTrace struct {
	ops     []solveOp
	congest [][4]int
}

// runSolves runs n scheduled solves on the seed's smoke graph.
func runSolves(t *testing.T, seed uint64, n int) solveTrace {
	t.Helper()
	c := smokeConfig("solve", seed, false)
	g, err := solveSpec(c).Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	s, err := newSolver(g, rep)
	if err != nil {
		t.Fatal(err)
	}
	var out solveTrace
	s.record = func(op solveOp, m [4]int) {
		out.ops = append(out.ops, op)
		out.congest = append(out.congest, m)
	}
	sched := newSolveSchedule(seed, "solve/ops")
	for i := 0; i < n; i++ {
		s.solve(uint64(i), sched.next())
	}
	if !rep.correct() || rep.failed != 0 {
		t.Fatalf("solves failed: %v", rep.invalid)
	}
	return out
}

func serveOps(c config, shape func(config) serveShape, n int) ([]graph.GeneratorSpec, [][]serveOp) {
	sh := shape(c)
	var per [][]serveOp
	for i := 0; i < serveClients; i++ {
		sched := sh.schedule(c.seed, "client/"+strconv.Itoa(i))
		var ops []serveOp
		for j := 0; j < n; j++ {
			ops = append(ops, sched.next())
		}
		per = append(per, ops)
	}
	return sh.specs, per
}

// TestSeededSchedules pins that the workload seed alone fixes the inputs:
// the same seed gives the same graphs, op sequences and congest counts, and
// another seed gives other ones.
func TestSeededSchedules(t *testing.T) {
	a, b := runSolves(t, 7, 6), runSolves(t, 7, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different solves or congest counts:\n%v\n%v", a, b)
	}
	if other := runSolves(t, 8, 6); reflect.DeepEqual(a.ops, other.ops) {
		t.Fatal("seeds 7 and 8 gave the same solve sequence")
	}
	for _, shape := range []func(config) serveShape{queryShape, churnShape} {
		c := smokeConfig("serve", 7, false)
		specsA, opsA := serveOps(c, shape, 500)
		specsB, opsB := serveOps(c, shape, 500)
		if !reflect.DeepEqual(specsA, specsB) || !reflect.DeepEqual(opsA, opsB) {
			t.Fatal("same seed, different serve graphs or schedules")
		}
		if reflect.DeepEqual(opsA[0], opsA[1]) {
			t.Fatal("the two clients share one schedule")
		}
		c.seed = 8
		specsC, opsC := serveOps(c, shape, 500)
		if reflect.DeepEqual(specsA, specsC) || reflect.DeepEqual(opsA, opsC) {
			t.Fatal("seeds 7 and 8 gave the same serve graphs or schedules")
		}
	}
}

// TestScheduleMix checks that the serve-query schedule follows the stated
// mix: about half the requests hit s0 and about 90% are verifies.
func TestScheduleMix(t *testing.T) {
	_, ops := serveOps(smokeConfig("serve-query", 3, false), queryShape, 20000)
	hot, verify := 0, 0
	for _, op := range ops[0] {
		if op.session == 0 {
			hot++
		}
		if op.kind == "verify" {
			verify++
		}
	}
	// s0 gets 50% directly plus its uniform share of the rest.
	wantHot := 0.5 + 0.5/float64(smokeSizes.querySessions)
	if got := float64(hot) / 20000; got < wantHot-0.02 || got > wantHot+0.02 {
		t.Fatalf("hot share %.3f, want about %.3f", got, wantHot)
	}
	if got := float64(verify) / 20000; got < 0.88 || got > 0.92 {
		t.Fatalf("verify share %.3f, want about 0.90", got)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsSmoke runs every workload at reduced size with tracing on and
// checks outputs, the declared metric names and the result line.
func TestWorkloadsSmoke(t *testing.T) {
	wantE2E, wantLayers := benchmarkNames(t)
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)
	for _, w := range []string{"solve", "serve-query", "serve-churn"} {
		t.Run(w, func(t *testing.T) {
			c := smokeConfig(w, 11, true)
			c.outDir = t.TempDir()
			rep, err := workloads[w](c)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.invalid)
			}
			if got := names(rep.e2e); !reflect.DeepEqual(got, wantE2E) {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json declares %v", got, wantE2E)
			}
			if got := names(rep.layers); !reflect.DeepEqual(got, wantLayers) {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json declares %v", got, wantLayers)
			}
			for _, m := range rep.e2e {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
			if len(rep.table) == 0 {
				t.Fatal("traced run printed no layer table")
			}
			var out strings.Builder
			rep.print(&out, true)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]any
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if last["correct"] != true {
				t.Fatalf("result line: %v", last)
			}
		})
	}
}
