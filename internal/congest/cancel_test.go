package congest

import (
	"errors"
	"testing"

	"d2color/internal/graph"
)

// TestResetClearsCancelHook: a cancel hook stops Run between rounds with
// ErrCanceled, and Reset must then return the engine to a state
// byte-identical to a freshly constructed one — a hook left installed
// would stop the next run at its first poll.
func TestResetClearsCancelHook(t *testing.T) {
	g := graph.GNP(150, 0.06, 9)
	const rounds = 7
	for _, workers := range []int{1, 4} {
		wantDigest, wantMetrics := runDigest(t, g, Config{Seed: 21, Workers: workers}, rounds)

		net := New(g, Config{Seed: 21, Workers: workers})
		procs := make([]*digestProcess, g.NumNodes())
		install := func() {
			net.SetProcesses(func(v graph.NodeID) Process {
				procs[v] = &digestProcess{rounds: rounds}
				return procs[v]
			})
		}
		install()
		polls := 0
		net.SetCancel(func() bool { polls++; return polls > 2 })
		if _, err := net.Run(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: canceled run returned %v, want ErrCanceled", workers, err)
		}
		if got := net.Round(); got != 2 {
			t.Fatalf("workers=%d: canceled run stopped after %d rounds, want 2", workers, got)
		}

		net.Reset(21) // must clear the hook, not just the round state
		install()
		if _, err := net.Run(); err != nil {
			t.Fatalf("workers=%d: post-Reset run: %v", workers, err)
		}
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
