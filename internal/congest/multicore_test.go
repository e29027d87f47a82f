package congest

import (
	"os"
	"runtime"
	"testing"
	"time"

	"d2color/internal/graph"
)

// multicoreGateEnv opts the wall-clock gate in. Timing assertions are only
// meaningful when the test has the machine to itself, so the gate does not
// run in ordinary `go test ./...` sweeps — CI's dedicated multicore job sets
// the variable (with GOMAXPROCS pinned) and nothing else on the runner
// competes with it.
const multicoreGateEnv = "D2_MULTICORE_GATE"

// TestWorkerTeamBeatsInlineMulticore is the multicore performance gate: on a
// runner with at least 4 cores, a GOMAXPROCS-rank team must beat the
// one-worker inline engine on a full-broadcast workload at n = 10⁶ — the
// single-large-graph regime (E11's relaxed row) where every multicore win
// previously came from the sweep grid and the engine itself lost. A failure
// here is a build failure: the team regressed to decoration.
func TestWorkerTeamBeatsInlineMulticore(t *testing.T) {
	if os.Getenv(multicoreGateEnv) == "" {
		t.Skipf("wall-clock gate: set %s=1 (CI multicore job) to enable", multicoreGateEnv)
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("wall-clock gate needs GOMAXPROCS >= 4, have %d", procs)
	}
	const (
		n      = 1_000_000
		rounds = 3
		trials = 2 // best-of, to damp scheduler noise
	)
	g := graph.GNPWithAverageDegree(n, 8, 42)

	measure := func(workers int) time.Duration {
		net := New(g, workers)
		defer net.Close()
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				ctx.Broadcast(1, uint64(round&1))
			})
		})
		net.RunRounds(1) // warm: buckets, inboxes, worker team
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			start := time.Now()
			net.RunRounds(rounds)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	procs := runtime.GOMAXPROCS(0)
	inline := measure(1)
	team := measure(procs)
	t.Logf("n=%d rounds=%d GOMAXPROCS=%d: inline %v, team %v (%.2fx)",
		n, rounds, procs, inline, team, float64(inline)/float64(team))
	if team >= inline {
		t.Fatalf("%d-worker team (%v) did not beat the inline engine (%v) at n=%d",
			procs, team, inline, n)
	}
}
