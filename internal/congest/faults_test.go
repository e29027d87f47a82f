package congest

import (
	"testing"

	"d2color/internal/graph"
	"d2color/internal/rng"
)

// hashFaults is a minimal deterministic FaultModel for engine tests: drop
// decisions and crash windows are pure hashes of (seed, round, slot/node), so
// every worker count — each consults the model in a different order — must
// still agree byte-for-byte.
type hashFaults struct {
	seed      uint64
	dropP     float64
	crashP    float64
	crashFrom int
	crashTo   int
}

func (f *hashFaults) DropMessage(round int, slot int32) bool {
	var s rng.Source
	s.ResetSplit(f.seed^0xD509, uint64(round)<<32|uint64(uint32(slot)))
	return s.Float64() < f.dropP
}

func (f *hashFaults) Crashed(round int, v graph.NodeID) bool {
	if round < f.crashFrom || round >= f.crashTo {
		return false
	}
	var s rng.Source
	s.ResetSplit(f.seed^0xC4A54, uint64(v))
	return s.Float64() < f.crashP
}

// runDigestRounds runs the digest protocol for a fixed round count with an
// optional fault model installed.
func runDigestRounds(t *testing.T, g *graph.Graph, cfg Config, rounds int, f FaultModel) ([]uint64, Metrics) {
	t.Helper()
	net := New(g, cfg)
	defer net.Close()
	procs := make([]*digestProcess, g.NumNodes())
	net.SetProcesses(func(v graph.NodeID) Process {
		procs[v] = &digestProcess{rounds: rounds}
		return procs[v]
	})
	net.SetFaults(f)
	net.RunRounds(rounds)
	out := make([]uint64, len(procs))
	for v := range procs {
		out[v] = procs[v].digest
	}
	return out, net.Metrics()
}

// TestFaultyWorkersMatchInline pins the byte-identity contract under
// injection: with the same deterministic fault model, a worker team must
// reproduce the inline engine's digests and metrics at every worker count,
// exactly as it does in the clean case.
func TestFaultyWorkersMatchInline(t *testing.T) {
	g := skewGraphN(400, 4, 30)
	faults := &hashFaults{seed: 99, dropP: 0.2, crashP: 0.3, crashFrom: 2, crashTo: 5}
	const rounds = 8
	wantDigest, wantMetrics := runDigestRounds(t, g, Config{Seed: 11, BandwidthWords: 2, Workers: 1}, rounds, faults)
	for _, workers := range []int{2, 3, 8} {
		digest, metrics := runDigestRounds(t, g,
			Config{Seed: 11, BandwidthWords: 2, Workers: workers}, rounds, faults)
		if metrics != wantMetrics {
			t.Fatalf("workers=%d: metrics diverged\nteam:   %v\ninline: %v", workers, metrics, wantMetrics)
		}
		for v := range digest {
			if digest[v] != wantDigest[v] {
				t.Fatalf("workers=%d node %d: digest %x != inline %x", workers, v, digest[v], wantDigest[v])
			}
		}
	}
}

// TestDropAllSeversNetwork: a model that drops every message must leave all
// receivers with empty inboxes (digest 0) even though sends are accounted.
func TestDropAllSeversNetwork(t *testing.T) {
	g := graph.GNP(40, 0.2, 7)
	dropAll := &hashFaults{dropP: 1.1}
	digest, metrics := runDigestRounds(t, g, Config{Seed: 2}, 5, dropAll)
	for v, d := range digest {
		if d != 0 {
			t.Fatalf("node %d received something through a drop-all model (digest %x)", v, d)
		}
	}
	if metrics.MessagesSent == 0 {
		t.Fatal("senders went quiet; drop must lose messages at delivery, not suppress sends")
	}
	if metrics.MaxEdgeWordsPerRound != 0 {
		t.Errorf("dropped traffic still accounted for bandwidth: MaxEdgeWordsPerRound=%d", metrics.MaxEdgeWordsPerRound)
	}
}

// TestResetClearsFaults: after a fault-injected run, Reset must return the
// engine to a state byte-identical to a freshly constructed one — the
// fault-free determinism goldens cannot shift because a faulty run borrowed
// the engine first.
func TestResetClearsFaults(t *testing.T) {
	g := graph.GNP(150, 0.06, 9)
	const rounds = 7
	for _, workers := range []int{1, 4} {
		wantDigest, wantMetrics := runDigestRounds(t, g, Config{Seed: 21, Workers: workers}, rounds, nil)

		net := New(g, Config{Seed: 21, Workers: workers})
		procs := make([]*digestProcess, g.NumNodes())
		install := func() {
			net.SetProcesses(func(v graph.NodeID) Process {
				procs[v] = &digestProcess{rounds: rounds}
				return procs[v]
			})
		}
		install()
		net.SetFaults(&hashFaults{seed: 5, dropP: 0.5})
		net.RunRounds(4) // dirty the engine under faults

		net.Reset(21) // must clear the faults, not just the round state
		install()
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

// TestCrashWindowRestart: a node inside a crash window misses rounds but
// resumes stepping from its retained state once the window closes.
func TestCrashWindowRestart(t *testing.T) {
	g := graph.Path(3)
	stepped := make([]int, 3)
	net := New(g, Config{Seed: 1})
	defer net.Close()
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			stepped[ctx.NodeID()]++
			ctx.Broadcast(kindTestData, uint64(round))
			return false
		})
	})
	net.SetFaults(&hashFaults{crashP: 1.1, crashFrom: 2, crashTo: 4}) // everyone down in rounds 2,3
	net.RunRounds(6)
	for v, got := range stepped {
		if got != 4 {
			t.Errorf("node %d stepped %d rounds, want 4 (6 minus 2 crashed)", v, got)
		}
	}
}
