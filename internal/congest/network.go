package congest

import (
	"slices"

	"d2color/internal/graph"
	"d2color/internal/rng"
)

// Process is the state machine a node runs. The simulator calls Step once per
// round with the messages delivered this round; the process sends messages
// for the next round through the Context.
//
// The inbox slice is owned by the engine and reused across rounds: it is
// valid only for the duration of the Step call. Copy out anything that must
// survive the round.
type Process interface {
	Step(ctx *Context, round int, inbox []Message)
}

// Engine is one CONGEST simulation instance: the topology and its CSR edge
// index, the per-node processes, the preallocated message plane, pooled
// contexts and inbox buffers, and the accumulated metrics. All buffers are
// allocated once by New and reused every round, and by Rebind for the next
// topology.
//
// The worker count selects how a round executes. With workers ≤ 1 the engine
// steps nodes and delivers messages inline on the calling goroutine, in node
// order, and holds no shard plan and no worker team. With k > 1 workers
// (clamped to n) both phases run on a persistent team of k ranks over an
// edge-balanced shard plan (see pool.go). The result does not depend on k:
// same colorings, same message orders, same Metrics for the same seed. Every
// worker count is byte-identical because processes only touch their own
// state, the message plane assigns every directed edge a fixed slot owned by
// its tail, and delivery is sharded by destination node.
//
// An Engine is not safe for concurrent use by multiple goroutines; the
// worker team synchronizes internally.
type Engine struct {
	g       *graph.Graph
	workers int
	ix      *graph.EdgeIndex
	plane   *plane
	procs   []Process
	ctxs    []Context   // pooled, one per node, reused across rounds
	inboxes [][]Message // pooled per-destination buffers, reused across rounds
	arena   []Message   // backing of the inbox buffers, one slot per directed edge
	// rands is one flat slice of 8-byte sources, not n separately boxed
	// *Source values: no per-node pointer, no per-node heap object, and
	// Context.Rand hands out interior pointers.
	rands   []rng.Source
	metrics Metrics
	round   int

	// cancel is the optional cooperative cancellation hook, polled between
	// rounds (never mid-round); see SetCancel. Cleared by Reset so warm reuse
	// stays byte-identical to a fresh engine.
	cancel func() bool

	// The multi-worker machinery (pool.go): the ownership map, the padded
	// per-rank cursors and metrics, and the persistent team. All three stay
	// zero when the engine runs inline (workers ≤ 1). plan.workers == 0 marks
	// an inline round; a team kept across a Rebind to a graph too small for
	// one stays parked until a larger graph needs it again.
	plan shardPlan
	ws   []shardWorker
	team *shardTeam
}

// New creates a simulation over the given topology. workers > 1 gives the
// engine a worker team of that many ranks (at most n); otherwise rounds run
// inline on the caller's goroutine. It is Rebind on a zero engine.
func New(g *graph.Graph, workers int) *Engine {
	e := &Engine{workers: workers}
	e.Rebind(g)
	return e
}

// Rebind points the engine at a new topology, keeping its worker count and
// its buffers: every per-node and per-slot buffer grows only when g needs
// more room than any graph the engine held before, the message plane's
// generation stamps restart, and the engine is Reset to seed 0. Every
// installed process is removed (they belonged to the old topology). A worker
// team whose rank count still fits g is kept; otherwise it is parked and,
// when g needs one, replaced. A rebound engine behaves byte-identically to
// New(g, workers).
func (e *Engine) Rebind(g *graph.Graph) {
	n := g.NumNodes()
	ix := g.EdgeIndex()
	slots := ix.NumSlots()
	e.g, e.ix = g, ix
	if e.plane == nil {
		e.plane = &plane{}
	}
	e.plane.rebind(ix)
	e.procs = slices.Grow(e.procs[:0], n)[:n]
	clear(e.procs)
	e.ctxs = slices.Grow(e.ctxs[:0], n)[:n]
	e.inboxes = slices.Grow(e.inboxes[:0], n)[:n]
	e.rands = slices.Grow(e.rands[:0], n)[:n]
	// The per-destination inbox buffers are carved out of one exact-size
	// arena — one Message slot per incoming directed edge, the most a
	// one-message-per-edge round can deliver. Full-capacity slicing keeps the
	// regions disjoint, so delivery appends in place with no growth doubling
	// and no per-node allocations; a protocol that double-sends over an edge
	// overflows that node's region onto the heap (append past cap) and simply
	// keeps the grown buffer until the next Rebind recarves the arena.
	e.arena = slices.Grow(e.arena[:0], slots)[:slots]
	for v := 0; v < n; v++ {
		lo, hi := ix.Offsets[v], ix.Offsets[v+1]
		e.inboxes[v] = e.arena[lo:lo:hi]
		e.ctxs[v] = Context{net: e, id: graph.NodeID(v), base: lo}
	}
	e.Reset(0)         // round, metrics, cancel hook, random streams
	e.plan.workers = 0 // inline unless g needs a team
	if workers := min(e.workers, n); workers > 1 {
		e.plan = buildShardPlan(ix, n, workers, e.plan)
		e.ws = slices.Grow(e.ws[:0], workers)[:workers]
		if e.team != nil && e.team.barrier.parties != workers {
			e.team.stop()
			e.team = nil
		}
		if e.team == nil {
			e.team = newShardTeam(e)
		}
	}
}

// SetProcess installs the process for one node.
func (e *Engine) SetProcess(v graph.NodeID, p Process) { e.procs[v] = p }

// Metrics returns the metrics accumulated so far.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Reset rewinds the engine to the state of a freshly constructed network
// with the given seed, without reallocating any of its pooled round buffers:
// the round counter, metrics and cancel hook are cleared, pending messages
// and inboxes are discarded, and every node's private random stream is
// re-seeded to rng.Split(seed, node). Installed processes are kept. Reset is
// what makes a network reusable across runs — a reset engine behaves
// byte-identically to a brand-new one with the same topology, processes,
// worker count and seed.
func (e *Engine) Reset(seed uint64) {
	e.round = 0
	e.metrics = Metrics{}
	e.cancel = nil
	for v := range e.inboxes {
		e.inboxes[v] = e.inboxes[v][:0]
	}
	e.plane.advance() // logically clears every pending slot
	for v := range e.rands {
		(&e.rands[v]).ResetSplit(seed, uint64(v))
	}
}

// collectSendCounters folds the per-context send counters into the metrics
// (in node order, so every worker count accounts identically) and resets
// them. Every message is one word.
func (e *Engine) collectSendCounters() {
	for v := range e.ctxs {
		ctx := &e.ctxs[v]
		e.metrics.MessagesSent += int(ctx.msgs)
		e.metrics.WordsSent += int(ctx.msgs)
		ctx.msgs = 0
	}
}

// deliverRange assembles the inboxes of destination nodes [lo, hi) from the
// message plane and accounts per-edge bandwidth into m: an edge that carried
// k > 1 messages this round is one bandwidth violation. Because a node's
// incoming slots are visited in ascending neighbor order, inboxes arrive
// sorted by sender with no per-round sort; messages from one sender keep
// their send order. The range discipline makes the call safe to shard by
// destination: it writes only inboxes[lo:hi] and *m, and reads the plane,
// which is frozen between the compute and delivery phases.
func (e *Engine) deliverRange(lo, hi int, m *Metrics) {
	ix, p := e.ix, e.plane
	for u := lo; u < hi; u++ {
		inbox := e.inboxes[u][:0]
		for in, end := ix.Offsets[u], ix.Offsets[u+1]; in < end; in++ {
			var k int
			if inbox, k = p.appendFresh(ix.Rev[in], inbox); k == 0 {
				continue
			}
			if k > m.MaxEdgeWordsPerRound {
				m.MaxEdgeWordsPerRound = k
			}
			if k > 1 {
				m.BandwidthViolations++
			}
		}
		e.inboxes[u] = inbox
	}
}

// finishRound advances the plane generation and the round counter after
// delivery completes.
func (e *Engine) finishRound() {
	e.plane.advance()
	e.round++
	e.metrics.Rounds = e.round
}

// Context is the interface a process uses to interact with the network during
// one Step call. Contexts are pooled by the engine (one per node, reused
// every round); a Context value is valid only for the duration of the Step
// call it is passed to.
type Context struct {
	net  *Engine
	id   graph.NodeID
	base int32 // first out-slot of this node in the edge index

	// Per-round send counter, folded into the engine metrics after the
	// compute phase. Only this node's step touches it, so the worker team
	// needs no synchronization here. The counter is reset every round, so
	// the narrow width cannot overflow on any feasible round (2³¹ messages
	// from one node would need a 32 GB plane).
	msgs int32
}

// Degree returns this node's degree.
func (c *Context) Degree() int { return int(c.net.ix.Offsets[c.id+1] - c.base) }

// Rand returns this node's private random stream.
func (c *Context) Rand() *rng.Source { return &c.net.rands[c.id] }

// SendToNeighbor queues a one-word message to this node's i-th neighbor (in
// sorted neighbor order) for delivery next round, addressing the out-slot
// directly (base+i). i must be in [0, Degree()); it is not range-checked
// beyond the slice bounds.
func (c *Context) SendToNeighbor(i int, kind Kind, word uint64) {
	c.net.plane.put(c.base+int32(i), Message{From: c.id, Kind: kind, Word: word})
	c.msgs++
}

// Broadcast sends the same one-word message to every neighbor, addressing
// the i-th neighbor's slot directly (base+i).
func (c *Context) Broadcast(kind Kind, word uint64) {
	d := c.Degree()
	m := Message{From: c.id, Kind: kind, Word: word}
	for i := 0; i < d; i++ {
		c.net.plane.put(c.base+int32(i), m)
	}
	c.msgs += int32(d)
}
