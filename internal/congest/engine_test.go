package congest

import (
	"runtime"
	"testing"

	"d2color/internal/graph"
)

// digestProcess folds every delivered message into an order-sensitive
// per-node digest and gossips pseudo-random words, exercising Broadcast,
// SendToNeighbor and — every third round — two sends over one edge, so the
// plane's overflow tier and the bandwidth accounting carry traffic. Two runs
// agree byte-for-byte iff all digests and Metrics agree.
type digestProcess struct {
	digest uint64
}

func (p *digestProcess) Step(ctx *Context, round int, inbox []Message) {
	for i := range inbox {
		m := &inbox[i]
		p.digest = p.digest*1099511628211 ^ uint64(m.From)<<32 ^ uint64(round) ^ m.Word
	}
	if d := ctx.Degree(); d > 0 {
		switch round % 3 {
		case 0:
			ctx.Broadcast(kindTestData, p.digest|1)
		case 1:
			ctx.SendToNeighbor(int(ctx.Rand().Uint64()%uint64(d)), kindTestData, p.digest)
		case 2:
			i := int(ctx.Rand().Uint64() % uint64(d))
			ctx.SendToNeighbor(i, kindTestData, p.digest)
			ctx.SendToNeighbor(i, kindTestData, p.digest>>3)
		}
	}
}

// runDigest runs digestProcess for the given rounds on a fresh engine and
// returns the per-node digests and the Metrics.
func runDigest(t *testing.T, g *graph.Graph, workers int, seed uint64, rounds int) ([]uint64, Metrics) {
	t.Helper()
	net := New(g, workers)
	defer net.Close()
	net.Reset(seed)
	procs := make([]digestProcess, g.NumNodes())
	installAll(net, func(v graph.NodeID) Process { return &procs[v] })
	net.RunRounds(rounds)
	out := make([]uint64, len(procs))
	for v := range procs {
		out[v] = procs[v].digest
	}
	return out, net.Metrics()
}

// TestWorkersMatchInlineSkew pins the worker team's byte-identity to the
// inline engine (Workers 1) on the star-heavy topology — the workload the
// edge-balanced shard plan and the work-stealing tail exist for — across
// team sizes that exercise the smallest team (2), an uneven chunk split (3),
// an even one (4) and more workers than chunks would naturally balance (16).
func TestWorkersMatchInlineSkew(t *testing.T) {
	g := skewGraphN(600, 4, 40)
	const rounds = 7
	wantDigest, wantMetrics := runDigest(t, g, 1, 11, rounds)
	if wantMetrics.BandwidthViolations == 0 {
		t.Fatal("fixture never double-sends; the overflow tier is untested")
	}
	for _, workers := range []int{2, 3, 4, 16} {
		digest, metrics := runDigest(t, g, workers, 11, rounds)
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

// TestStepAllocFree is the engine's allocation gate: after warm-up, a
// broadcast round must not touch the allocator at all, inline or on a worker
// team. For the team this pins that the persistent ranks replaced the
// 2×workers goroutine spawns (8 allocs, 216 B per round at GOMAXPROCS=4) the
// per-round pool design paid.
func TestStepAllocFree(t *testing.T) {
	g := graph.GNP(300, 0.05, 1)
	for _, workers := range []int{1, 4} {
		net := New(g, workers)
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				ctx.Broadcast(kindTestData, uint64(round&1))
			})
		})
		net.RunRounds(2) // warm-up: spawn the team, grow buckets and inboxes
		allocs := testing.AllocsPerRun(10, func() { net.RunRounds(1) })
		net.Close()
		if allocs > 0 {
			t.Errorf("workers=%d: warmed-up round allocated %.1f times, want 0", workers, allocs)
		}
	}
}

// TestInlineEngineStartsNoGoroutine pins what workers ≤ 1 costs: no shard
// plan, no per-rank state, no team, and no goroutine at any point of the
// engine's life — so an inline engine costs no more than the topology-sized
// buffers it simulates on.
func TestInlineEngineStartsNoGoroutine(t *testing.T) {
	g := graph.GNP(200, 0.06, 4)
	for _, workers := range []int{-1, 0, 1} {
		before := runtime.NumGoroutine()
		net := New(g, workers)
		if net.team != nil || net.ws != nil || net.plan.chunkLo != nil {
			t.Errorf("workers=%d: inline engine built multi-worker state", workers)
		}
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				ctx.Broadcast(kindTestData, uint64(round))
			})
		})
		net.RunRounds(4)
		// Teams closed by earlier tests may still be exiting, so the count
		// can only be checked for growth.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: goroutines %d -> %d, want none started", workers, before, after)
		}
		net.Close()
	}
}

// TestResetReusesTeam asserts Engine.Reset re-seeds in place: no new
// goroutines (the worker team survives), no allocation, and byte-identical
// results from the reused pooled engine — the reuse contract the sweep
// repetitions and the server-to-come lean on.
func TestResetReusesTeam(t *testing.T) {
	g := graph.GNP(200, 0.06, 3)
	net := New(g, 4)
	defer net.Close()
	net.Reset(5)
	installAll(net, func(v graph.NodeID) Process {
		return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
			ctx.Broadcast(kindTestData, ctx.Rand().Uint64())
		})
	})
	net.RunRounds(3)
	before := runtime.NumGoroutine()
	first := net.Metrics()
	net.Reset(5)
	net.RunRounds(3)
	if again := net.Metrics(); again != first {
		t.Fatalf("reset run diverged: %v vs %v", again, first)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew across Reset: %d -> %d (team must be reused)", before, after)
	}
	allocs := testing.AllocsPerRun(5, func() {
		net.Reset(5)
		net.RunRounds(3)
	})
	if allocs > 0 {
		t.Errorf("warmed reset+rounds allocated %.1f times, want 0", allocs)
	}
}

// TestCloseSemantics: Close is idempotent inline and with a team, never
// hangs, and a closed multi-worker engine fails loudly (panic) rather than
// deadlocking if stepped again; Metrics stays readable.
func TestCloseSemantics(t *testing.T) {
	g := graph.GNP(50, 0.1, 2)
	install := func(net *Engine) {
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				ctx.Broadcast(kindTestData, 1)
			})
		})
	}
	for _, workers := range []int{1, 4} {
		net := New(g, workers)
		install(net)
		net.RunRounds(2)
		net.Close()
		net.Close() // idempotent
		if net.Metrics().Rounds != 2 {
			t.Errorf("workers=%d: Metrics unusable after Close", workers)
		}
	}

	// Closing before the team ever ran (lazy spawn) must also be safe.
	never := New(g, 4)
	never.Close()

	closed := New(g, 4)
	install(closed)
	closed.RunRounds(1)
	closed.Close()
	defer func() {
		if recover() == nil {
			t.Error("stepping a closed multi-worker engine should panic, not hang")
		}
	}()
	closed.RunRounds(1)
}

// TestShardPlanEdgeBalanced checks the ownership map directly: the chunks
// partition the node range, every worker owns a non-degenerate run, and on
// the star-heavy topology the per-worker edge-slot weights are far closer to
// uniform than contiguous equal-node chunking would put them.
func TestShardPlanEdgeBalanced(t *testing.T) {
	g := skewGraphN(2000, 8, 400)
	ix := g.EdgeIndex()
	n, workers := g.NumNodes(), 8
	plan := buildShardPlan(ix, n, workers, shardPlan{})

	if got := plan.chunkLo[0]; got != 0 {
		t.Fatalf("first chunk starts at %d, want 0", got)
	}
	if got := plan.chunkLo[plan.numChunks()]; got != int32(n) {
		t.Fatalf("last chunk ends at %d, want %d", got, n)
	}
	for c := 0; c < plan.numChunks(); c++ {
		if plan.chunkLo[c] > plan.chunkLo[c+1] {
			t.Fatalf("chunk %d range inverted: [%d, %d)", c, plan.chunkLo[c], plan.chunkLo[c+1])
		}
	}

	slots := func(lo, hi int32) int { return int(ix.Offsets[hi] - ix.Offsets[lo]) }
	fair := float64(ix.NumSlots()) / float64(workers)
	worstPlan, worstNaive := 0.0, 0.0
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := plan.nodeRange(w)
		if over := float64(slots(lo, hi)) / fair; over > worstPlan {
			worstPlan = over
		}
		nlo := min(w*chunk, n)
		nhi := min(nlo+chunk, n)
		if over := float64(slots(int32(nlo), int32(nhi))) / fair; over > worstNaive {
			worstNaive = over
		}
	}
	// The 64 hubs sit in the first equal-node chunk, so naive chunking
	// overloads one shard with most of the graph's slots; the edge-balanced
	// plan must stay near fair (one chunk of slack) and beat it decisively.
	if worstPlan > 1.5 {
		t.Errorf("edge-balanced plan: worst shard carries %.2f× the fair slot share", worstPlan)
	}
	if worstNaive < 2*worstPlan {
		t.Errorf("skew fixture too tame: naive worst %.2f× vs plan worst %.2f× — the plan should win big here",
			worstNaive, worstPlan)
	}
}

// TestShardPlanTinyGraphs: plans on graphs smaller than the worker count
// must stay well-formed (every chunk in range, full coverage), and the
// engine must run them correctly with absurd worker requests.
func TestShardPlanTinyGraphs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		g := graph.Path(n)
		plan := buildShardPlan(g.EdgeIndex(), n, max(n, 1), shardPlan{})
		if got := int(plan.chunkLo[plan.numChunks()]); got != n {
			t.Errorf("n=%d: plan covers %d nodes", n, got)
		}
		net := New(g, 64)
		received := make([]int, n) // per node: the team steps nodes concurrently
		installAll(net, func(v graph.NodeID) Process {
			return ProcessFunc(func(ctx *Context, round int, inbox []Message) {
				if round == 1 {
					received[v] = len(inbox)
				}
				ctx.Broadcast(kindTestData, uint64(v))
			})
		})
		net.RunRounds(2)
		net.Close()
		got := 0
		for _, k := range received {
			got += k
		}
		if want := g.EdgeIndex().NumSlots(); got != want {
			t.Errorf("n=%d workers=64: delivered %d messages, want %d", n, got, want)
		}
	}
}
