package congest

import (
	"errors"
	"testing"
	"testing/quick"

	"d2color/internal/graph"
)

// Test-local message kinds.
const (
	kindTestFlood Kind = iota + 1
	kindTestData
)

// broadcastMaxProcess floods the maximum UID seen so far and halts after a
// fixed number of rounds. It is used to exercise the engine end to end.
type broadcastMaxProcess struct {
	best     uint64
	maxRound int
}

func (p *broadcastMaxProcess) Step(ctx *Context, round int, inbox []Message) bool {
	if round == 0 {
		p.best = ctx.UID()
	}
	for _, m := range inbox {
		if m.Kind == kindTestFlood && m.Word > p.best {
			p.best = m.Word
		}
	}
	if round >= p.maxRound {
		return true
	}
	ctx.Broadcast(kindTestFlood, p.best)
	return false
}

func runBroadcastMax(t *testing.T, g *graph.Graph, cfg Config) []uint64 {
	t.Helper()
	net := New(g, cfg)
	defer net.Close()
	procs := make([]*broadcastMaxProcess, g.NumNodes())
	diam := g.Diameter()
	if diam < 0 {
		diam = g.NumNodes()
	}
	net.SetProcesses(func(v graph.NodeID) Process {
		procs[v] = &broadcastMaxProcess{maxRound: diam + 1}
		return procs[v]
	})
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := make([]uint64, g.NumNodes())
	for v := range procs {
		out[v] = procs[v].best
	}
	return out
}

func TestBroadcastMaxConverges(t *testing.T) {
	g := graph.Grid(5, 6)
	best := runBroadcastMax(t, g, Config{Seed: 1, IDs: IDSparseRandom})
	// Everyone should agree on the global max UID.
	want := best[0]
	for v, b := range best {
		if b != want {
			t.Fatalf("node %d converged to %d, node 0 to %d", v, b, want)
		}
	}
}

// Worker count 1 runs every round inline and is the reference; every team
// size must reproduce it node for node.
func TestWorkersMatchInline(t *testing.T) {
	g := graph.GNP(80, 0.08, 3)
	want := runBroadcastMax(t, g, Config{Seed: 7, IDs: IDRandomPermutation, Workers: 1})
	for _, workers := range []int{2, 3, 4, 16} {
		got := runBroadcastMax(t, g, Config{Seed: 7, IDs: IDRandomPermutation, Workers: workers})
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("workers=%d node %d: %d vs inline %d", workers, v, got[v], want[v])
			}
		}
	}
}

func TestRunErrorsWithoutProcess(t *testing.T) {
	net := New(graph.Path(3), Config{})
	net.SetProcess(0, ProcessFunc(func(ctx *Context, round int, inbox []Message) bool { return true }))
	if _, err := net.Run(); !errors.Is(err, ErrNoProcess) {
		t.Errorf("Run = %v, want ErrNoProcess", err)
	}
}

func TestRoundLimit(t *testing.T) {
	net := New(graph.Path(2), Config{MaxRounds: 10})
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool { return false })
	})
	if _, err := net.Run(); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("Run = %v, want ErrRoundLimit", err)
	}
	if net.Metrics().Rounds != 10 {
		t.Errorf("rounds = %d, want 10", net.Metrics().Rounds)
	}
}

func TestSendToNonNeighborIsViolation(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 are not adjacent
	net := New(g, Config{})
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			if ctx.NodeID() == 0 && round == 0 {
				if err := ctx.Send(2, kindTestData, 0x41); !errors.Is(err, ErrNotNeighbor) {
					t.Errorf("Send to non-neighbor = %v, want ErrNotNeighbor", err)
				}
			}
			return round >= 1
		})
	})
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if net.Metrics().ProtocolViolations != 1 {
		t.Errorf("protocol violations = %d, want 1", net.Metrics().ProtocolViolations)
	}
	if net.Metrics().MessagesSent != 0 {
		t.Errorf("violating message should not be delivered, sent=%d", net.Metrics().MessagesSent)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	g := graph.Path(2)
	net := New(g, Config{BandwidthWords: 2})
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			if ctx.NodeID() == 0 && round == 0 {
				_ = ctx.SendWords(1, kindTestData, 0xB16, 5)
			}
			return round >= 1
		})
	})
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := net.Metrics()
	if m.MaxEdgeWordsPerRound != 5 {
		t.Errorf("MaxEdgeWordsPerRound = %d, want 5", m.MaxEdgeWordsPerRound)
	}
	if m.BandwidthViolations != 1 {
		t.Errorf("BandwidthViolations = %d, want 1", m.BandwidthViolations)
	}
	if m.WordsSent != 5 || m.MessagesSent != 1 {
		t.Errorf("words=%d msgs=%d, want 5,1", m.WordsSent, m.MessagesSent)
	}
}

func TestChargeRounds(t *testing.T) {
	net := New(graph.Path(2), Config{})
	net.ChargeRounds(7)
	net.ChargeRounds(-3) // ignored
	m := net.Metrics()
	if m.ChargedRounds != 7 {
		t.Errorf("ChargedRounds = %d, want 7", m.ChargedRounds)
	}
	if m.TotalRounds() != 7 {
		t.Errorf("TotalRounds = %d, want 7", m.TotalRounds())
	}
}

func TestRunRoundsAndHaltedNodes(t *testing.T) {
	g := graph.Cycle(4)
	net := New(g, Config{})
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			return int(ctx.NodeID())%2 == 0 // even nodes halt immediately
		})
	})
	net.RunRounds(3)
	if net.Round() != 3 {
		t.Errorf("Round() = %d, want 3", net.Round())
	}
	if got := net.Metrics().HaltedNodes; got != 2 {
		t.Errorf("halted nodes = %d, want 2", got)
	}
	if net.AllHalted() {
		t.Error("odd nodes never halt; AllHalted should be false")
	}
}

func TestIDAssignments(t *testing.T) {
	g := graph.Complete(20)
	for _, mode := range []IDAssignment{IDSequential, IDRandomPermutation, IDSparseRandom} {
		net := New(g, Config{Seed: 5, IDs: mode})
		seen := make(map[uint64]bool)
		for v := 0; v < g.NumNodes(); v++ {
			id := net.ID(graph.NodeID(v))
			if seen[id] {
				t.Errorf("mode %d: duplicate ID %d", mode, id)
			}
			seen[id] = true
		}
	}
	// Sequential is the identity.
	net := New(g, Config{})
	if net.ID(7) != 7 {
		t.Errorf("sequential ID(7) = %d, want 7", net.ID(7))
	}
}

func TestContextAccessors(t *testing.T) {
	g := graph.Star(5)
	net := New(g, Config{Seed: 2})
	var sawDegree, sawN, sawDelta int
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			if ctx.NodeID() == 0 {
				sawDegree = ctx.Degree()
				sawN = ctx.N()
				sawDelta = ctx.MaxDegree()
				if len(ctx.Neighbors()) != 4 {
					t.Errorf("Neighbors() length = %d, want 4", len(ctx.Neighbors()))
				}
				if ctx.NeighborUID(1) != net.ID(1) {
					t.Error("NeighborUID mismatch")
				}
				if ctx.Rand() == nil {
					t.Error("Rand() should not be nil")
				}
			}
			return true
		})
	})
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawDegree != 4 || sawN != 5 || sawDelta != 4 {
		t.Errorf("accessors: degree=%d n=%d Δ=%d", sawDegree, sawN, sawDelta)
	}
}

func TestMessageWordsDefault(t *testing.T) {
	m := Message{}
	if m.words() != 1 {
		t.Errorf("default words = %d, want 1", m.words())
	}
	if m.String() == "" {
		t.Error("Message.String should be non-empty")
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
		net := New(g, Config{Seed: seed})
		ok := true
		net.SetProcesses(func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
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
				return round >= 1
			})
		})
		if _, err := net.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Metrics {
		g := graph.GNP(40, 0.1, 11)
		net := New(g, Config{Seed: 99})
		net.SetProcesses(func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
				// Random gossip: send a random value to a random neighbor.
				if ctx.Degree() > 0 {
					to := ctx.Neighbors()[ctx.Rand().Intn(ctx.Degree())]
					_ = ctx.Send(to, kindTestData, ctx.Rand().Uint64())
				}
				return round >= 5
			})
		})
		if _, err := net.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return net.Metrics()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs produced different metrics:\n%v\n%v", a, b)
	}
}

// Regression test for the Config.BandwidthWords semantics: a message
// exceeding the bandwidth limit is a *bandwidth* violation — counted, but
// still delivered — while a send to a non-neighbor is a *protocol*
// violation — counted, and dropped before delivery.
func TestViolationSemantics(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 are not adjacent
	net := New(g, Config{BandwidthWords: 2})
	var got []Message
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			if round == 0 && ctx.NodeID() == 0 {
				// Oversized (5 > 2 words) but to a neighbor: delivered.
				if err := ctx.SendWords(1, kindTestData, 0xB16, 5); err != nil {
					t.Errorf("oversized send to neighbor returned %v", err)
				}
				// Non-neighbor: dropped.
				if err := ctx.Send(2, kindTestData, 0x6057); !errors.Is(err, ErrNotNeighbor) {
					t.Errorf("send to non-neighbor = %v, want ErrNotNeighbor", err)
				}
			}
			if round == 1 && ctx.NodeID() != 0 {
				got = append(got, inbox...)
			}
			return round >= 1
		})
	})
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 || got[0].Word != 0xB16 || got[0].To != 1 {
		t.Fatalf("delivered messages = %v, want exactly the oversized message at node 1", got)
	}
	m := net.Metrics()
	if m.BandwidthViolations != 1 {
		t.Errorf("BandwidthViolations = %d, want 1", m.BandwidthViolations)
	}
	if m.ProtocolViolations != 1 {
		t.Errorf("ProtocolViolations = %d, want 1", m.ProtocolViolations)
	}
	if m.MessagesSent != 1 || m.WordsSent != 5 {
		t.Errorf("sent msgs=%d words=%d, want 1, 5 (dropped message must not be accounted)", m.MessagesSent, m.WordsSent)
	}
}

// IDSparseRandom must terminate and produce distinct IDs even for tiny
// graphs, where the n³ space collapses to the 1024 floor and random redraw
// collisions are plausible; the assignment is guarded by a retry bound with
// a deterministic linear-probe fallback.
func TestIDSparseRandomSmallN(t *testing.T) {
	for n := 1; n <= 3; n++ {
		var edges []graph.Edge
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: 0, V: graph.NodeID(v)})
		}
		g := graph.MustFromEdges(n, edges)
		for seed := uint64(0); seed < 50; seed++ {
			net := New(g, Config{Seed: seed, IDs: IDSparseRandom})
			seen := make(map[uint64]bool, n)
			for v := 0; v < n; v++ {
				id := net.ID(graph.NodeID(v))
				if seen[id] {
					t.Fatalf("n=%d seed=%d: duplicate ID %d", n, seed, id)
				}
				if id >= 1024 {
					t.Fatalf("n=%d seed=%d: ID %d outside the max(n³, 1024) space", n, seed, id)
				}
				seen[id] = true
			}
		}
	}
}

// Multiple messages over the same edge in one round must all be delivered in
// send order (they share one slot of the message plane).
func TestMultipleMessagesPerEdgePerRound(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := graph.Path(2)
		net := New(g, Config{Workers: workers})
		var got []Message
		net.SetProcesses(func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
				if round == 0 && ctx.NodeID() == 0 {
					_ = ctx.Send(1, kindTestData, 1)
					_ = ctx.Send(1, kindTestData, 2)
					_ = ctx.Send(1, kindTestData, 3)
				}
				if round == 1 && ctx.NodeID() == 1 {
					got = append(got, inbox...)
				}
				return round >= 1
			})
		})
		if _, err := net.Run(); err != nil {
			t.Fatalf("workers=%d Run: %v", workers, err)
		}
		net.Close()
		if len(got) != 3 || got[0].Word != 1 || got[1].Word != 2 || got[2].Word != 3 {
			t.Fatalf("workers=%d inbox = %v, want words 1/2/3 in send order", workers, got)
		}
	}
}

// Reset must rewind an engine to the exact state of a freshly constructed
// one: same results, same metrics, same (seed-derived) IDs, inline and with a
// worker team, and for seed-dependent ID assignments.
func TestResetMatchesFreshEngine(t *testing.T) {
	g := graph.GNP(60, 0.08, 5)
	for _, ids := range []IDAssignment{IDSequential, IDRandomPermutation, IDSparseRandom} {
		testResetMatchesFreshEngine(t, g, ids)
	}
}

func testResetMatchesFreshEngine(t *testing.T, g *graph.Graph, ids IDAssignment) {
	for _, workers := range []int{1, 4} {
		run := func(net *Engine) ([]uint64, Metrics) {
			if _, err := net.Run(); err != nil {
				t.Fatalf("workers=%d Run: %v", workers, err)
			}
			out := make([]uint64, g.NumNodes())
			for v := range out {
				out[v] = net.ID(graph.NodeID(v))
			}
			return out, net.Metrics()
		}
		install := func(net *Engine) []*broadcastMaxProcess {
			procs := make([]*broadcastMaxProcess, g.NumNodes())
			net.SetProcesses(func(v graph.NodeID) Process {
				procs[v] = &broadcastMaxProcess{maxRound: g.NumNodes() / 2}
				return procs[v]
			})
			return procs
		}
		for _, seed := range []uint64{3, 77} {
			fresh := New(g, Config{Seed: seed, IDs: ids, Workers: workers})
			defer fresh.Close()
			fp := install(fresh)
			fid, fm := run(fresh)

			reused := New(g, Config{Seed: 12345, IDs: ids, Workers: workers})
			defer reused.Close()
			rp := install(reused)
			run(reused) // dirty the plane, inboxes, metrics and RNG streams
			reused.Reset(seed)
			for v := range rp {
				*rp[v] = broadcastMaxProcess{maxRound: g.NumNodes() / 2}
			}
			rid, rm := run(reused)

			if fm != rm {
				t.Fatalf("ids=%d workers=%d seed=%d: metrics differ\nfresh: %v\nreset: %v", ids, workers, seed, fm, rm)
			}
			for v := range fp {
				if fid[v] != rid[v] {
					t.Fatalf("ids=%d workers=%d seed=%d node %d: fresh ID %d, reset ID %d",
						ids, workers, seed, v, fid[v], rid[v])
				}
				if fp[v].best != rp[v].best {
					t.Fatalf("ids=%d workers=%d seed=%d node %d: fresh best %d, reset best %d",
						ids, workers, seed, v, fp[v].best, rp[v].best)
				}
			}
		}
	}
}

// A reset engine must not allocate beyond its first warm-up: the pooled
// buffers survive the reset.
func TestResetDoesNotAllocate(t *testing.T) {
	g := graph.GNP(100, 0.06, 2)
	net := New(g, Config{Seed: 1})
	net.SetProcesses(func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) bool {
			ctx.Broadcast(kindTestData, uint64(round))
			return false
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
