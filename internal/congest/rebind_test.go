package congest

import (
	"fmt"
	"testing"

	"d2color/internal/graph"
)

// rebindSequence is a topology script for rebinding one engine: growing,
// shrinking, a star, a single node, an edgeless graph, then larger again.
func rebindSequence() []*graph.Graph {
	return []*graph.Graph{
		graph.GNP(30, 0.15, 1),
		graph.GNP(90, 0.08, 2),
		graph.GNPWithAverageDegree(160, 7, 3),
		graph.GNP(40, 0.1, 4),
		graph.Star(25),
		graph.MustFromEdges(1, nil),
		graph.MustFromEdges(12, nil),
		graph.Grid(9, 9),
	}
}

// doubleSendProcess folds every delivered message and the ID its sender
// sent into an order-sensitive digest and, besides a broadcast of its own
// ID, sends a second message over one random edge every other round — so
// the plane's overflow tier carries traffic. It sends in a random quarter
// of its rounds only, so slots go unwritten for stretches and stale
// generation stamps would show. The ID is the process's own state.
type doubleSendProcess struct {
	digest uint64
	id     uint64
}

func (p *doubleSendProcess) Step(ctx *Context, round int, inbox []Message) {
	for i := range inbox {
		m := &inbox[i]
		p.digest = p.digest*1099511628211 ^ uint64(m.From)<<32 ^ uint64(m.Kind) ^ m.Word
	}
	p.digest ^= p.id << 7
	if d := ctx.Degree(); d > 0 && ctx.Rand().Uint64()&3 == 0 {
		ctx.Broadcast(kindTestFlood, p.id)
		pick := int(ctx.Rand().Uint64() % uint64(d))
		if round%2 == 0 {
			ctx.SendToNeighbor(pick, kindTestData, p.digest)
		} else {
			ctx.SendToNeighbor(pick, kindTestData, p.digest>>3)
		}
	} else {
		p.digest ^= ctx.Rand().Uint64()
	}
}

// runDoubleSend runs doubleSendProcess for 13 rounds from seed 9 on net,
// with IDs drawn under mode.
func runDoubleSend(net *Engine, g *graph.Graph, mode int) ([]uint64, Metrics) {
	net.Reset(9)
	ids := testIDs(mode, g.NumNodes(), 9)
	procs := make([]doubleSendProcess, g.NumNodes())
	for v := range procs {
		procs[v].id = ids[v]
		net.SetProcess(graph.NodeID(v), &procs[v])
	}
	net.RunRounds(13)
	out := make([]uint64, len(procs))
	for v := range procs {
		out[v] = procs[v].digest
	}
	return out, net.Metrics()
}

// TestRebindMatchesNew: one engine rebound through rebindSequence runs every
// topology byte-identically to New on it — same per-node digests (delivered
// messages, IDs carried in them, random draws) and same Metrics — for every
// ID space of testIDs, inline and on a team. A team whose rank count still
// fits survives every rebind, including one to a graph too small for a team.
func TestRebindMatchesNew(t *testing.T) {
	graphs := rebindSequence()
	for _, workers := range []int{1, 4} {
		for _, ids := range []int{idsSequential, idsPermutation, idsSparse} {
			reused := New(graphs[0], workers)
			team := reused.team
			for i, g := range graphs {
				t.Run(fmt.Sprintf("workers=%d/ids=%d/graph=%d", workers, ids, i), func(t *testing.T) {
					if i > 0 {
						reused.Rebind(g)
					}
					fresh := New(g, workers)
					want, wantM := runDoubleSend(fresh, g, ids)
					fresh.Close()
					got, gotM := runDoubleSend(reused, g, ids)
					if gotM != wantM {
						t.Fatalf("metrics differ:\nrebound: %v\nfresh:   %v", gotM, wantM)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("node %d: rebound digest %x, fresh %x", v, got[v], want[v])
						}
					}
					if workers > 1 && reused.team != team {
						t.Errorf("rebind to n=%d replaced a %d-rank team", g.NumNodes(), workers)
					}
				})
			}
			reused.Close()
		}
	}
}

// TestRebindAllocFree: once an engine has held the largest graph of a
// sequence, rebinding through the sequence again allocates nothing, inline
// and with a team.
func TestRebindAllocFree(t *testing.T) {
	graphs := rebindSequence()
	for _, workers := range []int{1, 4} {
		net := New(graphs[0], workers)
		for _, g := range graphs {
			net.Rebind(g)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, g := range graphs {
				net.Rebind(g)
			}
		})
		net.Close()
		if allocs > 0 {
			t.Errorf("workers=%d: warm rebind sequence allocated %.1f times, want 0", workers, allocs)
		}
	}
}
