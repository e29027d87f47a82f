package congest

import (
	"testing"
	"testing/quick"
	"unsafe"

	"d2color/internal/graph"
)

// broadcastMaxProcess floods the maximum ID seen so far for a fixed number
// of rounds. The ID is the process's own state, as in any protocol that
// uses the model's identifiers. It exercises the engine end to end.
type broadcastMaxProcess struct {
	best uint64
}

func (p *broadcastMaxProcess) Step(ctx *Context, round int, inbox []Message) {
	for _, m := range inbox {
		if m.Kind == kindTestFlood && m.Word > p.best {
			p.best = m.Word
		}
	}
	ctx.Broadcast(kindTestFlood, p.best)
}

// runBroadcastMax floods the IDs for diameter+1 rounds and returns every
// node's final maximum.
func runBroadcastMax(t *testing.T, g *graph.Graph, workers int, ids []uint64) []uint64 {
	t.Helper()
	net := New(g, workers)
	defer net.Close()
	procs := make([]broadcastMaxProcess, g.NumNodes())
	for v := range procs {
		procs[v].best = ids[v]
	}
	installAll(net, func(v graph.NodeID) Process { return &procs[v] })
	diam := g.Diameter()
	if diam < 0 {
		diam = g.NumNodes()
	}
	net.RunRounds(diam + 1)
	out := make([]uint64, g.NumNodes())
	for v := range procs {
		out[v] = procs[v].best
	}
	return out
}

func TestBroadcastMaxConverges(t *testing.T) {
	g := graph.Grid(5, 6)
	ids := testIDs(idsSparse, g.NumNodes(), 1)
	want := uint64(0)
	for _, id := range ids {
		want = max(want, id)
	}
	for v, b := range runBroadcastMax(t, g, 1, ids) {
		if b != want {
			t.Fatalf("node %d converged to %d, want the global max %d", v, b, want)
		}
	}
}

// Worker count 1 runs every round inline and is the reference; every team
// size must reproduce it node for node.
func TestWorkersMatchInline(t *testing.T) {
	g := graph.GNP(80, 0.08, 3)
	ids := testIDs(idsPermutation, g.NumNodes(), 7)
	want := runBroadcastMax(t, g, 1, ids)
	for _, workers := range []int{2, 3, 4, 16} {
		got := runBroadcastMax(t, g, workers, ids)
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("workers=%d node %d: %d vs inline %d", workers, v, got[v], want[v])
			}
		}
	}
}

// TestBandwidthAccounting: rounds that send at most one message per
// directed edge read MaxEdgeWordsPerRound 1 and no violations, whatever mix
// of Broadcast and SendToNeighbor produced them; every overloaded edge then
// counts once per round, and the heaviest edge sets the maximum.
func TestBandwidthAccounting(t *testing.T) {
	g := graph.Star(4) // hub 0, leaves 1..3
	net := New(g, 1)
	installAll(net, func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			switch {
			case round == 0:
				ctx.Broadcast(kindTestData, 1)
			case round == 1 && v == 0:
				ctx.SendToNeighbor(0, kindTestData, 2)
				ctx.SendToNeighbor(2, kindTestData, 2)
			case round == 2 && v == 0: // edges 0→1 and 0→2 carry 2 and 3 messages
				ctx.Broadcast(kindTestData, 3)
				ctx.SendToNeighbor(0, kindTestData, 3)
				ctx.SendToNeighbor(1, kindTestData, 3)
				ctx.SendToNeighbor(1, kindTestData, 3)
			}
		})
	})
	net.RunRounds(2)
	m := net.Metrics()
	if m.MaxEdgeWordsPerRound != 1 || m.BandwidthViolations != 0 || m.MessagesSent != 8 || m.WordsSent != 8 {
		t.Fatalf("in-model rounds: %v, want maxEdgeWords=1 bwViol=0 msgs=words=8", m)
	}
	net.RunRounds(1)
	m = net.Metrics()
	if m.MaxEdgeWordsPerRound != 3 || m.BandwidthViolations != 2 || m.MessagesSent != 14 || m.WordsSent != 14 {
		t.Fatalf("overloaded round: %v, want maxEdgeWords=3 bwViol=2 msgs=words=14", m)
	}
	if m.ProtocolViolations != 0 || m.HaltedNodes != 0 {
		t.Errorf("slot-addressed sends reported protoViol=%d halted=%d, want 0", m.ProtocolViolations, m.HaltedNodes)
	}
}

func TestContextAccessors(t *testing.T) {
	g := graph.Star(5)
	net := New(g, 1)
	net.Reset(2)
	degree := make([]int, g.NumNodes())
	draws := make([]uint64, g.NumNodes())
	installAll(net, func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			degree[v] = ctx.Degree()
			draws[v] = ctx.Rand().Uint64()
		})
	})
	net.RunRounds(1)
	for v := range degree {
		if degree[v] != g.Degree(graph.NodeID(v)) {
			t.Errorf("node %d: Degree() = %d, want %d", v, degree[v], g.Degree(graph.NodeID(v)))
		}
		if v > 0 && draws[v] == draws[v-1] {
			t.Errorf("nodes %d and %d drew the same word: Rand() is not per node", v-1, v)
		}
	}
}

// TestRunRoundsAndHaltedNodes: RunRounds(k) steps every node with a process
// exactly k times, with rounds numbered on from earlier calls; nodes without
// a process are skipped, and no node counts as halted.
func TestRunRoundsAndHaltedNodes(t *testing.T) {
	g := graph.Cycle(4)
	net := New(g, 1)
	var steps [4][]int
	for v := 0; v < 3; v++ { // node 3 has no process
		net.SetProcess(graph.NodeID(v), ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			steps[v] = append(steps[v], round)
		}))
	}
	net.RunRounds(2)
	net.RunRounds(1)
	for v := 0; v < 3; v++ {
		if len(steps[v]) != 3 || steps[v][0] != 0 || steps[v][2] != 2 {
			t.Errorf("node %d stepped in rounds %v, want [0 1 2]", v, steps[v])
		}
	}
	if steps[3] != nil {
		t.Errorf("node without a process stepped in rounds %v", steps[3])
	}
	if m := net.Metrics(); m.Rounds != 3 || m.HaltedNodes != 0 {
		t.Errorf("rounds = %d, halted = %d, want 3, 0", m.Rounds, m.HaltedNodes)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Rounds: 3, ChargedRounds: 2, MessagesSent: 10, WordsSent: 12, MaxEdgeWordsPerRound: 4}
	b := Metrics{Rounds: 5, MessagesSent: 1, WordsSent: 1, MaxEdgeWordsPerRound: 7, BandwidthViolations: 1}
	sum := a.Add(b)
	if sum.Rounds != 8 || sum.ChargedRounds != 2 || sum.MessagesSent != 11 || sum.WordsSent != 13 {
		t.Errorf("Add = %+v", sum)
	}
	if sum.MaxEdgeWordsPerRound != 7 {
		t.Errorf("MaxEdgeWordsPerRound = %d, want 7", sum.MaxEdgeWordsPerRound)
	}
	if sum.TotalRounds() != 10 {
		t.Errorf("TotalRounds = %d, want 10", sum.TotalRounds())
	}
	if sum.String() == "" {
		t.Error("Metrics.String should be non-empty")
	}
}

// Property: message delivery is exactly "sent in round r, delivered in round
// r+1", and inboxes are sorted by sender.
func TestPropertyDeliveryNextRoundSorted(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Cycle(6)
		net := New(g, 1)
		net.Reset(seed)
		ok := true
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				if round == 0 && len(inbox) != 0 {
					ok = false // nothing can arrive in round 0
				}
				if round == 1 {
					// Every node has two neighbors that each sent one message.
					if len(inbox) != 2 {
						ok = false
					}
					for i := 1; i < len(inbox); i++ {
						if inbox[i-1].From > inbox[i].From {
							ok = false
						}
					}
				}
				ctx.Broadcast(kindTestData, uint64(round))
			})
		})
		net.RunRounds(2)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.GNP(40, 0.1, 11)
	a, am := runDigest(t, g, 1, 99, 6)
	b, bm := runDigest(t, g, 1, 99, 6)
	if am != bm {
		t.Fatalf("two identical runs produced different metrics:\n%v\n%v", am, bm)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d: digests %x and %x differ across identical runs", v, a[v], b[v])
		}
	}
}

// TestMultipleMessagesPerEdgePerRound: two SendToNeighbor calls to one
// neighbor in one round exceed the model's bound. Both messages still
// arrive, in send order, and the edge-round counts as one bandwidth
// violation with MaxEdgeWordsPerRound 2 — identically inline and on a team.
func TestMultipleMessagesPerEdgePerRound(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := graph.Path(4)
		net := New(g, workers)
		got := make([][]Message, g.NumNodes()) // per node: the team steps nodes concurrently
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				if round == 0 && v == 1 {
					ctx.SendToNeighbor(1, kindTestData, 1) // neighbors of 1 are 0, 2
					ctx.SendToNeighbor(1, kindTestData, 2)
				}
				if round == 1 {
					got[v] = append(got[v], inbox...)
				}
			})
		})
		net.RunRounds(2)
		net.Close()
		if len(got[2]) != 2 || got[2][0] != (Message{From: 1, Kind: kindTestData, Word: 1}) ||
			got[2][1] != (Message{From: 1, Kind: kindTestData, Word: 2}) {
			t.Fatalf("workers=%d: node 2 inbox = %v, want words 1, 2 from node 1 in send order", workers, got[2])
		}
		for _, v := range []int{0, 1, 3} {
			if len(got[v]) != 0 {
				t.Fatalf("workers=%d: node %d received %v, want nothing", workers, v, got[v])
			}
		}
		m := net.Metrics()
		if m.BandwidthViolations != 1 || m.MaxEdgeWordsPerRound != 2 || m.MessagesSent != 2 || m.WordsSent != 2 {
			t.Errorf("workers=%d: %v, want bwViol=1 maxEdgeWords=2 msgs=words=2", workers, m)
		}
	}
}

// Reset must rewind an engine to the exact state of a freshly constructed
// one: same deliveries, same random streams and same metrics, inline and
// with a worker team.
func TestResetMatchesFreshEngine(t *testing.T) {
	g := graph.GNP(60, 0.08, 5)
	const rounds = 9
	for _, workers := range []int{1, 4} {
		for _, seed := range []uint64{3, 77} {
			want, wantM := runDigest(t, g, workers, seed, rounds)

			reused := New(g, workers)
			procs := make([]digestProcess, g.NumNodes())
			installAll(reused, func(v graph.NodeID) Process { return &procs[v] })
			reused.Reset(12345)
			reused.RunRounds(rounds) // dirty the plane, inboxes, metrics and RNG streams
			reused.Reset(seed)
			clear(procs)
			reused.RunRounds(rounds)
			gotM := reused.Metrics()
			reused.Close()

			if gotM != wantM {
				t.Fatalf("workers=%d seed=%d: metrics differ\nfresh: %v\nreset: %v", workers, seed, wantM, gotM)
			}
			for v := range procs {
				if procs[v].digest != want[v] {
					t.Fatalf("workers=%d seed=%d node %d: fresh digest %x, reset digest %x",
						workers, seed, v, want[v], procs[v].digest)
				}
			}
		}
	}
}

// A reset engine must not allocate beyond its first warm-up: the pooled
// buffers survive the reset.
func TestResetDoesNotAllocate(t *testing.T) {
	g := graph.GNP(100, 0.06, 2)
	net := New(g, 1)
	installAll(net, func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			ctx.Broadcast(kindTestData, uint64(round))
		})
	})
	net.RunRounds(2)
	allocs := testing.AllocsPerRun(10, func() {
		net.Reset(7)
		net.RunRounds(2)
	})
	if allocs > 0 {
		t.Errorf("reset + warmed rounds allocated %.1f times, want 0", allocs)
	}
}

// TestMessageLayoutMatchesResidencyEstimate keeps graph.EstimateResidency in
// step with the message plane: every directed edge slot holds one inline
// Message plus a 4-byte count and a 4-byte generation stamp in the plane,
// and one Message in the inbox arena.
func TestMessageLayoutMatchesResidencyEstimate(t *testing.T) {
	size := int(unsafe.Sizeof(Message{}))
	if size != 16 {
		t.Errorf("Message is %d bytes, want 16", size)
	}
	// One more edge is two more directed slots at fixed n.
	perSlot := (graph.EstimateResidency(1000, 5001).PlaneBytes - graph.EstimateResidency(1000, 5000).PlaneBytes) / 2
	if want := float64(2*size + 4 + 4); perSlot != want {
		t.Errorf("EstimateResidency charges %.0f plane bytes per slot, the layout holds %.0f (Message = %d bytes)",
			perSlot, want, size)
	}
}
