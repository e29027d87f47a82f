package congest

import (
	"errors"
	"fmt"
	"slices"

	"d2color/internal/graph"
	"d2color/internal/rng"
)

// Process is the state machine a node runs. The simulator calls Step once per
// round with the messages delivered this round; the process sends messages
// for the next round through the Context and returns true once it has halted.
// A halted process is not stepped again (its neighbors may keep running).
//
// The inbox slice is owned by the engine and reused across rounds: it is
// valid only for the duration of the Step call. Copy out anything that must
// survive the round.
type Process interface {
	Step(ctx *Context, round int, inbox []Message) (halted bool)
}

// ProcessFunc adapts a function to the Process interface, convenient for
// small test protocols.
type ProcessFunc func(ctx *Context, round int, inbox []Message) bool

// Step implements Process.
func (f ProcessFunc) Step(ctx *Context, round int, inbox []Message) bool { return f(ctx, round, inbox) }

// IDAssignment selects how the simulator assigns the O(log n)-bit unique
// identifiers the model gives to nodes.
type IDAssignment int

// Identifier assignment strategies.
const (
	// IDSequential assigns ID(v) = v. Simplest; adequate for algorithms that
	// only need distinctness.
	IDSequential IDAssignment = iota + 1
	// IDRandomPermutation assigns a random permutation of 1..n, modelling an
	// adversarially scrambled but compact ID space.
	IDRandomPermutation
	// IDSparseRandom assigns distinct random values from a space of size n³,
	// modelling the general O(log n)-bit ID assumption.
	IDSparseRandom
)

// Config controls a simulation.
type Config struct {
	// Seed is the root seed for all per-node randomness.
	Seed uint64
	// BandwidthWords is the number of O(log n)-bit words a node may send over
	// one edge in one round. 0 means "account but do not limit". Exceeding
	// the limit is a bandwidth violation: it is counted in
	// Metrics.BandwidthViolations but the messages are still delivered, so an
	// algorithm bug is observable rather than silently masked. Sends to
	// non-neighbors are a different class of fault (protocol violations):
	// those messages are dropped, never delivered, and counted in
	// Metrics.ProtocolViolations (see Context.SendWords).
	BandwidthWords int
	// MaxRounds aborts Run with ErrRoundLimit if the protocol has not
	// terminated. 0 means the package default (defaultMaxRounds).
	MaxRounds int
	// Workers is the engine's worker count. 0 or 1 runs every round inline
	// on the calling goroutine; k > 1 runs node steps and message delivery
	// on a persistent team of k ranks (at most n). Results are byte-identical
	// for every k: processes only touch their own state, the message plane
	// assigns every directed edge a fixed slot owned by its tail, and
	// delivery is sharded by destination node.
	Workers int
	// IDs selects the identifier assignment; zero value means IDSequential.
	IDs IDAssignment
}

// defaultMaxRounds is a generous cap that terminates runaway protocols in
// tests and experiments.
const defaultMaxRounds = 1_000_000

// idSparseRetries bounds the random redraws IDSparseRandom performs per node
// before falling back to a deterministic linear probe. The probe terminates
// because the ID space is always strictly larger than n.
const idSparseRetries = 64

// Errors returned by the simulator.
var (
	ErrRoundLimit  = errors.New("congest: protocol did not terminate within the round limit")
	ErrNoProcess   = errors.New("congest: node has no process installed")
	ErrNotNeighbor = errors.New("congest: attempted to send to a non-neighbor")
	ErrCanceled    = errors.New("congest: run canceled")
)

// Engine is one CONGEST simulation instance: the topology and its CSR edge
// index, the per-node processes, the preallocated message plane, pooled
// contexts and inbox buffers, and the accumulated metrics. All buffers are
// allocated once by New and reused every round, and by Rebind for the next
// topology.
//
// Config.Workers selects how a round executes. With Workers ≤ 1 the engine
// steps nodes and delivers messages inline on the calling goroutine, in node
// order, and holds no shard plan and no worker team. With k > 1 workers
// (clamped to n) both phases run on a persistent team of k ranks over an
// edge-balanced shard plan (see pool.go). The result does not depend on k:
// same colorings, same message orders, same Metrics for the same Config.Seed.
//
// An Engine is not safe for concurrent use by multiple goroutines; the
// worker team synchronizes internally.
type Engine struct {
	g       *graph.Graph
	cfg     Config
	ix      *graph.EdgeIndex
	plane   *plane
	procs   []Process
	halted  []bool
	ctxs    []Context   // pooled, one per node, reused across rounds
	inboxes [][]Message // pooled per-destination buffers, reused across rounds
	arena   []Message   // backing of the inbox buffers, one slot per directed edge
	// ids is nil under IDSequential (ID(v) = v needs no table); the
	// randomized assignments allocate it on demand. At n = 10⁷ the implicit
	// default saves 80 MB per engine.
	ids []uint64
	// rands is one flat slice of 8-byte sources, not n separately boxed
	// *Source values: no per-node pointer, no per-node heap object, and
	// Context.Rand hands out interior pointers.
	rands   []rng.Source
	metrics Metrics
	round   int

	// faults is the optional fault model; see faults.go. Cleared by Reset so
	// warm reuse stays byte-identical to a fresh engine.
	faults FaultModel

	// cancel is the optional cooperative cancellation hook, polled between
	// rounds (never mid-round); see SetCancel in faults.go. Cleared by Reset
	// for the same reason as faults: a warm reused engine must be
	// byte-identical to a fresh one.
	cancel func() bool

	// The multi-worker machinery (pool.go): the ownership map, the padded
	// per-rank cursors and metrics, and the persistent team. All three stay
	// zero when the engine runs inline (Workers ≤ 1). plan.workers == 0 marks
	// an inline round; a team kept across a Rebind to a graph too small for
	// one stays parked until a larger graph needs it again.
	plan shardPlan
	ws   []shardWorker
	team *shardTeam
}

// New creates a simulation over the given topology. cfg.Workers > 1 gives the
// engine a worker team of that many ranks (at most n); otherwise rounds run
// inline on the caller's goroutine. It is Rebind on a zero engine.
func New(g *graph.Graph, cfg Config) *Engine {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = defaultMaxRounds
	}
	if cfg.IDs == 0 {
		cfg.IDs = IDSequential
	}
	e := &Engine{cfg: cfg}
	e.Rebind(g)
	return e
}

// Rebind points the engine at a new topology, keeping its Config and its
// buffers: every per-node and per-slot buffer grows only when g needs more
// room than any graph the engine held before, the message plane's
// generation stamps restart, the IDs are re-derived from Config.Seed, and
// the engine is Reset to that seed. Every installed process is removed
// (they belonged to the old topology). A worker team whose rank
// count still fits g is kept; otherwise it is parked and, when g needs one,
// replaced. A rebound engine behaves byte-identically to New(g, cfg).
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
	e.halted = slices.Grow(e.halted[:0], n)[:n]
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
	e.ids = AssignIDs(e.cfg.IDs, e.g.NumNodes(), e.cfg.Seed, e.ids)
	e.Reset(e.cfg.Seed) // round, metrics, hooks, halted flags, random streams
	e.plan.workers = 0  // inline unless g needs a team
	if workers := min(e.cfg.Workers, n); workers > 1 {
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

// AssignIDs draws the model identifiers of n nodes under mode from seed,
// reusing buf's storage. It is the one ID assignment: an Engine's ID(v)
// reads the table it returns, and algorithms that only need the IDs call it
// without building an engine. Under IDSequential (and the zero mode) it
// returns nil: ID(v) = v needs no table, which at n = 10⁷ saves 80 MB.
func AssignIDs(mode IDAssignment, n int, seed uint64, buf []uint64) []uint64 {
	switch mode {
	case IDRandomPermutation:
		ids := slices.Grow(buf[:0], n)[:n]
		src := rng.Split(seed, 0xC0FFEE)
		perm := src.Perm(n)
		for v := 0; v < n; v++ {
			ids[v] = uint64(perm[v]) + 1
		}
		return ids
	case IDSparseRandom:
		ids := slices.Grow(buf[:0], n)[:n]
		src := rng.Split(seed, 0xC0FFEE)
		space := uint64(n) * uint64(n) * uint64(n)
		if n > 0 && space/uint64(n)/uint64(n) != uint64(n) {
			// n³ overflowed uint64; any power-of-two-ish huge space models
			// the O(log n)-bit assumption just as well.
			space = 1 << 62
		}
		if space < 1024 {
			// Keeps the space strictly larger than n for tiny graphs, so
			// distinct IDs always exist (and collisions stay rare).
			space = 1024
		}
		seen := make(map[uint64]bool, n)
		for v := 0; v < n; v++ {
			id := src.Uint64() % space
			for redraws := 0; seen[id]; redraws++ {
				if redraws < idSparseRetries {
					id = src.Uint64() % space
				} else {
					// Pathological collision streak: finish deterministically
					// with a linear probe instead of looping on the RNG.
					id = (id + 1) % space
				}
			}
			seen[id] = true
			ids[v] = id
		}
		return ids
	default:
		return nil
	}
}

// Graph returns the topology.
func (e *Engine) Graph() *graph.Graph { return e.g }

// SetProcess installs the process for one node.
func (e *Engine) SetProcess(v graph.NodeID, p Process) { e.procs[v] = p }

// SetProcesses installs a process for every node using the factory.
func (e *Engine) SetProcesses(factory func(v graph.NodeID) Process) {
	for v := 0; v < e.g.NumNodes(); v++ {
		e.procs[v] = factory(graph.NodeID(v))
	}
}

// Metrics returns the metrics accumulated so far.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.HaltedNodes = e.countHalted()
	return m
}

// Round returns the number of simulated rounds executed so far.
func (e *Engine) Round() int { return e.round }

// Reset rewinds the engine to the state of a freshly constructed network
// with the given seed, without reallocating any of its pooled round buffers:
// the round counter, metrics and halted flags are cleared, pending messages
// and inboxes are discarded, every node's private random stream is re-seeded
// to rng.Split(seed, node), and the ID assignment is re-derived from the new
// seed (a no-op allocation-wise for IDSequential; the randomized modes pay
// their usual assignment cost). Installed processes are kept. Reset is what
// makes a network reusable across runs — a reset engine behaves
// byte-identically to a brand-new one with the same topology, processes,
// Config and seed.
func (e *Engine) Reset(seed uint64) {
	e.round = 0
	e.metrics = Metrics{}
	e.faults = nil
	e.cancel = nil
	clear(e.halted)
	for v := range e.inboxes {
		e.inboxes[v] = e.inboxes[v][:0]
	}
	e.plane.advance() // logically clears every pending slot
	for v := range e.rands {
		(&e.rands[v]).ResetSplit(seed, uint64(v))
	}
	if e.cfg.Seed != seed && e.cfg.IDs != IDSequential {
		e.cfg.Seed = seed
		e.ids = AssignIDs(e.cfg.IDs, e.g.NumNodes(), e.cfg.Seed, e.ids)
	}
	e.cfg.Seed = seed
}

// ID returns the model identifier assigned to node v.
func (e *Engine) ID(v graph.NodeID) uint64 {
	if e.ids == nil {
		return uint64(v) // IDSequential
	}
	return e.ids[v]
}

// ChargeRounds accounts k additional rounds for a pipelined sub-protocol that
// is not simulated message-by-message. Negative charges are ignored.
func (e *Engine) ChargeRounds(k int) {
	if k > 0 {
		e.metrics.ChargedRounds += k
	}
}

// AllHalted reports whether every node with a process has halted. Crashed
// nodes still count — crash windows are transient.
func (e *Engine) AllHalted() bool {
	for v := range e.procs {
		if e.procs[v] != nil && !e.halted[v] {
			return false
		}
	}
	return true
}

func (e *Engine) countHalted() int {
	n := 0
	for _, h := range e.halted {
		if h {
			n++
		}
	}
	return n
}

// collectSendCounters folds the per-context send counters into the metrics
// (in node order, so every worker count accounts identically) and resets
// them.
func (e *Engine) collectSendCounters() {
	for v := range e.ctxs {
		ctx := &e.ctxs[v]
		e.metrics.MessagesSent += int(ctx.msgs)
		e.metrics.WordsSent += int(ctx.words)
		e.metrics.ProtocolViolations += int(ctx.violations)
		ctx.msgs, ctx.words, ctx.violations = 0, 0, 0
	}
}

// deliverRange assembles the inboxes of destination nodes [lo, hi) from the
// message plane and accounts per-edge bandwidth into m. Because a node's
// incoming slots are visited in ascending neighbor order, inboxes arrive
// sorted by sender with no per-round sort; messages from one sender keep
// their send order. The range discipline makes the call safe to shard by
// destination: it writes only inboxes[lo:hi] and *m, and reads the plane,
// which is frozen between the compute and delivery phases.
func (e *Engine) deliverRange(lo, hi int, m *Metrics) {
	ix, p := e.ix, e.plane
	limit := e.cfg.BandwidthWords
	faulty := e.faults != nil
	for u := lo; u < hi; u++ {
		if faulty && e.skipped(u) {
			// Crashed destination: its round of traffic is lost.
			e.inboxes[u] = e.inboxes[u][:0]
			continue
		}
		inbox := e.inboxes[u][:0]
		for in, end := ix.Offsets[u], ix.Offsets[u+1]; in < end; in++ {
			slot := ix.Rev[in]
			// The drop oracle is consulted only for slots that carry a
			// message this round, so fault models can count exact losses.
			if e.faults != nil && p.fresh(slot) && e.faults.DropMessage(e.round, slot) {
				continue
			}
			var w int
			if inbox, w = p.appendFresh(slot, inbox); w == 0 {
				continue
			}
			if w > m.MaxEdgeWordsPerRound {
				m.MaxEdgeWordsPerRound = w
			}
			if limit > 0 && w > limit {
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

	// Per-round send counters, folded into the engine metrics after the
	// compute phase. Only this node's step touches them, so the worker team
	// needs no synchronization here. The counters are reset every
	// round, so the narrow widths cannot overflow on any feasible round
	// (2³¹ messages from one node would need a 48 GB plane). The neighbor
	// list is not cached here: it is two loads away in the graph's CSR, and
	// dropping the slice header keeps a Context at 32 bytes — 320 MB less
	// pooled state at n = 10⁷ than the 64-byte layout.
	words      int64
	msgs       int32
	violations int32
}

// NodeID returns the dense index of this node (0..n-1).
func (c *Context) NodeID() graph.NodeID { return c.id }

// UID returns the model's O(log n)-bit unique identifier of this node.
func (c *Context) UID() uint64 { return c.net.ID(c.id) }

// N returns the number of nodes in the network (globally known, as the model
// assumes knowledge of n or a polynomial upper bound).
func (c *Context) N() int { return c.net.g.NumNodes() }

// MaxDegree returns Δ, assumed globally known (Section 2.6 "We assume ∆ is
// known to the nodes").
func (c *Context) MaxDegree() int { return c.net.g.MaxDegree() }

// Degree returns this node's degree.
func (c *Context) Degree() int { return int(c.net.ix.Offsets[c.id+1] - c.base) }

// Neighbors returns this node's neighbor list (shared slice; do not modify).
func (c *Context) Neighbors() []graph.NodeID { return c.net.g.Neighbors(c.id) }

// NeighborUID returns the unique identifier of a neighbor. In the CONGEST
// model a node learns its neighbors' IDs in one round; exposing the lookup
// here models that without boilerplate in every algorithm.
func (c *Context) NeighborUID(v graph.NodeID) uint64 { return c.net.ID(v) }

// Rand returns this node's private random stream.
func (c *Context) Rand() *rng.Source { return &c.net.rands[c.id] }

// Send queues a 1-word message to a neighbor for delivery next round. The
// payload is a kind tag plus one word, encoded by the caller's codec (see
// codec.go). Sends to non-neighbors are dropped and recorded as protocol
// violations.
func (c *Context) Send(to graph.NodeID, kind Kind, word uint64) error {
	return c.SendWords(to, kind, word, 1)
}

// SendWords queues a message of the given word size to a neighbor. Sending
// to a non-neighbor is a protocol violation: the message is dropped (never
// delivered) and Metrics.ProtocolViolations is incremented. Oversized
// messages, by contrast, are delivered and accounted as bandwidth violations
// at delivery time (see Config.BandwidthWords).
func (c *Context) SendWords(to graph.NodeID, kind Kind, word uint64, words int) error {
	e, ok := c.net.ix.Slot(c.id, to)
	if !ok {
		c.violations++
		return fmt.Errorf("%w: %d → %d", ErrNotNeighbor, c.id, to)
	}
	if words <= 0 {
		words = 1
	}
	c.net.plane.put(e, Message{From: c.id, To: to, Kind: kind, Word: word, Words: clampWords(words)})
	c.msgs++
	c.words += int64(words)
	return nil
}

// SendToNeighbor queues a 1-word message to this node's i-th neighbor (in
// sorted neighbor order), addressing the out-slot directly (base+i) instead
// of paying Send's O(log deg) neighbor lookup. i must be in [0, Degree());
// it is not range-checked beyond the slice bounds.
func (c *Context) SendToNeighbor(i int, kind Kind, word uint64) {
	c.net.plane.put(c.base+int32(i), Message{From: c.id, To: c.net.g.Neighbors(c.id)[i], Kind: kind, Word: word, Words: 1})
	c.msgs++
	c.words++
}

// Broadcast sends the same payload to every neighbor (1 word each). The i-th
// neighbor's slot is addressed directly (base+i), so a broadcast does not
// pay the per-send neighbor lookup.
func (c *Context) Broadcast(kind Kind, word uint64) {
	nbrs := c.net.g.Neighbors(c.id)
	for i, v := range nbrs {
		c.net.plane.put(c.base+int32(i), Message{From: c.id, To: v, Kind: kind, Word: word, Words: 1})
	}
	c.msgs += int32(len(nbrs))
	c.words += int64(len(nbrs))
}

// clampWords saturates a declared word count into the Message.Words field.
// 2¹⁶-1 words is far beyond any O(log n)-bit discipline; the accounting in
// Context.words (an int) stays exact either way.
func clampWords(words int) uint16 {
	if words > int(^uint16(0)) {
		return ^uint16(0)
	}
	return uint16(words)
}
