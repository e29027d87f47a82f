package congest

import (
	"testing"

	"d2color/internal/graph"
)

// TestResetClearsCancelHook: a cancel hook stops RunRounds between rounds,
// and Reset must then return the engine to a state byte-identical to a
// freshly constructed one — a hook left installed would stop the next run
// at its first poll.
func TestResetClearsCancelHook(t *testing.T) {
	g := graph.GNP(150, 0.06, 9)
	const rounds = 7
	for _, workers := range []int{1, 4} {
		wantDigest, wantMetrics := runDigest(t, g, workers, 21, rounds)

		net := New(g, workers)
		procs := make([]digestProcess, g.NumNodes())
		installAll(net, func(v graph.NodeID) Process { return &procs[v] })
		net.Reset(21)
		polls := 0
		net.SetCancel(func() bool { polls++; return polls > 2 })
		net.RunRounds(rounds)
		if got := net.Metrics().Rounds; got != 2 {
			t.Fatalf("workers=%d: canceled run stopped after %d rounds, want 2", workers, got)
		}

		net.Reset(21) // must clear the hook, not just the round state
		clear(procs)
		net.RunRounds(rounds)
		if got := net.Metrics(); got != wantMetrics {
			t.Fatalf("workers=%d: post-Reset metrics %+v, fresh engine %+v", workers, got, wantMetrics)
		}
		for v := range procs {
			if procs[v].digest != wantDigest[v] {
				t.Fatalf("workers=%d node %d: post-Reset digest %x, fresh engine %x", workers, v, procs[v].digest, wantDigest[v])
			}
		}
		net.Close()
	}
}
