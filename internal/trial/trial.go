// Package trial implements the distributed "try a random color" primitive of
// the paper (Section 2.2) on top of the CONGEST simulator.
//
// Recall what trying a color means: the node sends the candidate color to all
// its immediate neighbors, who report back whether they or any of their own
// neighbors are using (or simultaneously proposing) that color. If all
// answers are negative, the node adopts the color.
//
// Each trial phase costs three simulated rounds:
//
//	round 3t   (propose): live nodes broadcast their candidate color;
//	                      nodes that adopted a color in the previous phase
//	                      broadcast the adoption so neighbors stay up to date;
//	round 3t+1 (answer):  every node answers each proposing neighbor whether
//	                      the candidate conflicts with its own color/proposal,
//	                      any of its neighbors' colors, or another proposal it
//	                      received this phase;
//	round 3t+2 (adopt):   proposers that received only negative answers adopt.
//
// The primitive is exactly the building block of: Step 2 of d2-Color, the
// FinishColoring subroutine, the (1+ε)Δ²-palette baseline, and the
// Johansson-style (Δ+1)-coloring baseline on G (with distance-1 conflict
// checking).
//
// Because the primitive underlies every simulated experiment, it is built as
// a reusable, allocation-free kernel (see Runner): all per-node state lives
// in flat arrays keyed by node or by CSR edge slot, message payloads are
// plain uint64 words (see codec.go), and a Runner can be re-run with a new
// Config without rebuilding its n processes or its network. A warmed-up
// phase executes with zero heap allocations.
package trial

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
)

// Scope selects which conflicts invalidate a trial.
type Scope int

// Conflict scopes.
const (
	// ScopeDistance2 rejects a candidate used or proposed within distance 2
	// (the d2-coloring setting).
	ScopeDistance2 Scope = iota + 1
	// ScopeDistance1 rejects a candidate used or proposed by an immediate
	// neighbor only (the ordinary coloring setting).
	ScopeDistance1
)

// Config controls a trial run.
type Config struct {
	// PaletteSize is the number of colors, [0, PaletteSize).
	PaletteSize int
	// Scope selects distance-1 or distance-2 conflict checking.
	Scope Scope
	// MaxPhases bounds the number of phases. A run stopped by an explicit
	// MaxPhases simply reports Complete == false (callers that cap phases
	// expect partial colorings). 0 means run until complete, with a hard
	// backstop of 64·⌈log₂ n⌉ + 128 phases (defaultPhaseCap). The primitive
	// completes in O(log n) phases w.h.p. on every palette this repository
	// uses, so the backstop is dozens of times the expectation; hitting it
	// means the configuration cannot complete (e.g. an adversarially small
	// palette), and Run surfaces that as ErrPhaseBudget with
	// Result.BudgetExhausted set rather than silently returning an
	// incomplete coloring.
	MaxPhases int
	// AvoidKnownUsed makes live nodes draw their candidate uniformly from the
	// colors not known (from received adoption notifications) to be used by a
	// neighbor, falling back to the whole palette when no such color remains.
	// This is the classical simple algorithm for ordinary coloring ([19, 9]
	// in the paper), where a node can afford to track its neighbors' colors;
	// the distance-2 algorithms deliberately do not use it (Section 2.1).
	// Without it a live node draws uniformly from the whole palette.
	AvoidKnownUsed bool
	// Seed seeds the per-node randomness.
	Seed uint64
	// Workers is the simulator's worker count (≤ 1 runs rounds inline; see
	// congest.Config.Workers). Results do not depend on it. Used by the Run
	// convenience wrapper; a Runner fixes its worker count at construction.
	Workers int
	// Initial is an optional partial coloring to start from; nodes already
	// colored in it never participate. It is not modified.
	Initial coloring.Coloring
	// PreloadInitial treats Initial's colors as already announced: every
	// node starts out knowing each neighbor's Initial color (as if the
	// adoption broadcasts of round 0 had happened before the run), and
	// pre-colored nodes skip that broadcast. With uniform draws the final
	// coloring is byte-identical to a non-preloaded run — round-0
	// announcements are recorded by receivers before any answer is
	// computed, so the knowledge state at every decision point matches —
	// while the messages the broadcasts would have cost disappear from the
	// metrics. (With AvoidKnownUsed the preloaded knowledge legitimately
	// changes the phase-0 draws, so no identity is promised.) The repair
	// kernel runs on extracted neighborhoods where most nodes are fixed
	// context; preloading removes the context's broadcast storm.
	PreloadInitial bool
	// ExtraKnown optionally seeds per-node known-used colors beyond what
	// any neighbor announces: ExtraKnown[v] lists colors node v must treat
	// as used by a neighbor (duplicates and out-of-palette colors are
	// ignored). The repair kernel uses it to stand in for frozen context
	// outside an extracted subgraph — a boundary node keeps vetoing the
	// colors of full-graph neighbors that the subgraph does not contain.
	// Non-nil ExtraKnown forces the palette-bitset known tier (the sorted
	// per-slot tier has no room for colors without a slot), whose rows cost
	// n·⌈PaletteSize/64⌉ words whatever the degrees — the repair session
	// bounds how long it keeps a kernel holding them. Its length must be
	// the node count; the lists are read during Start only.
	ExtraKnown [][]int32
}

// Result reports the outcome of a trial run.
type Result struct {
	Coloring coloring.Coloring
	Phases   int
	Metrics  congest.Metrics
	Complete bool
	// BudgetExhausted is set when a run-to-completion (MaxPhases == 0) run
	// hit its phase backstop; Run additionally returns ErrPhaseBudget.
	BudgetExhausted bool
	// Canceled is set when the run was stopped by the Runner's SetCancel
	// hook; Run additionally returns ErrCanceled.
	Canceled bool
}

// ErrPhaseBudget is returned (wrapped) when a run-to-completion trial run
// exhausts its phase backstop; the partial Result is still returned.
var ErrPhaseBudget = errors.New("trial: phase budget exhausted before the coloring completed")

// ErrCanceled is returned (wrapped) when a run is stopped by its cooperative
// cancellation hook (Runner.SetCancel); the partial Result —
// phases executed, partial Metrics — is still returned. Mirrors the
// ErrPhaseBudget contract: the kernel stays fully reusable, and the next
// Start rewinds it to a state byte-identical to a fresh kernel.
var ErrCanceled = errors.New("trial: run canceled")

// defaultPhaseCap returns the backstop for run-to-completion runs:
// 64·⌈log₂ n⌉ + 128, matching the O(log n) w.h.p. completion bound with a
// wide safety margin.
func defaultPhaseCap(n int) int {
	if n < 2 {
		return 128
	}
	return 64*bits.Len(uint(n-1)) + 128
}

// Message kinds and payload codecs of the trial protocol. A payload is one
// O(log n)-bit word: colors come from a palette of at most Δ²+1 ≤ n² colors,
// so a color is at most two ⌈log₂ n⌉-bit words' worth of bits and the
// constant-factor word declarations below match the seed implementation
// (every trial message is charged one word, the paper's O(log n)-bit unit).
const (
	kindPropose congest.Kind = iota + 1 // Word = EncodeColor(candidate)
	kindAdopt                           // Word = EncodeColor(adopted color)
	kindAnswer                          // Word = EncodeAnswer(candidate, conflict)
)

// EncodeColor packs a non-negative color into a payload word.
func EncodeColor(c int) uint64 { return uint64(c) }

// DecodeColor inverts EncodeColor.
func DecodeColor(w uint64) int { return int(w) }

// EncodeAnswer packs an answer — the echoed candidate color plus the
// conflict bit — into one payload word.
func EncodeAnswer(color int, conflict bool) uint64 {
	w := uint64(color) << 1
	if conflict {
		w |= 1
	}
	return w
}

// DecodeAnswer inverts EncodeAnswer.
func DecodeAnswer(w uint64) (color int, conflict bool) {
	return int(w >> 1), w&1 == 1
}

// uncolored is the flat-array sentinel, identical to coloring.Uncolored.
const uncolored int32 = int32(coloring.Uncolored)

// Runner is the reusable allocation-free kernel executing trial phases on a
// fixed topology. All mutable per-node state lives in flat arrays — indexed
// by node, by CSR edge slot for neighbor-color knowledge (the slot range of
// node v doubles as v's scratch region in the answer round), or in per-node
// palette bitset rows for known-color membership — and the underlying
// network, its processes and every buffer are built once in NewRunner (and
// regrown by Rebind only when a new topology outgrows them). Start
// rewinds the whole kernel for a new Config in O(n + m + n·palette/64),
// allocating only when the palette outgrows every earlier Start, so repeated
// sub-protocol invocations on the same graph (the harness's averaged
// repetitions, the baselines, randd2's step 2) stop rebuilding n processes
// and a fresh network each time.
//
// A Runner is not safe for concurrent use; run one Runner per goroutine.
type Runner struct {
	g       *graph.Graph
	ix      *graph.EdgeIndex
	net     *congest.Engine
	workers int // the engine's worker count, fixed at construction

	procs []nodeProc

	cfg     Config
	palette int32

	// Per-node state.
	color     []int32 // current color, uncolored if none
	proposal  []int32 // candidate this phase, -1 if none
	announced []bool  // adoption already broadcast

	// Per-edge-slot state; the region of node v is ix.Offsets[v] ..
	// ix.Offsets[v+1]. nbrColor mirrors the seed path's per-node
	// map[NodeID]int of neighbor colors as a slice indexed by neighbor
	// position.
	nbrColor    []int32
	propScratch []int32 // answer-round scratch: the phase's proposal colors, sorted

	// Known-colors state — which colors has a neighbor announced? Two
	// tiers, selected per Start (deterministically, from topology + palette
	// alone, so results never depend on the choice):
	//
	// The common tier is knownBits: one palette bitset row per node
	// (knownWords words each, carved out of one flat backing slice); bit c
	// of row v is set iff some neighbor announced color c. The answer
	// round's "is this color used by a neighbor" check is one AND, and
	// pickAvoidingKnown's free-color draw is a popcount plus a word scan.
	// Colors outside [0, PaletteSize) (possible via Config.Initial) are
	// never recorded: a candidate is always inside the palette, so such
	// colors cannot conflict.
	//
	// The rows cost n·⌈palette/64⌉ words. On degenerate palette ≫ degree
	// topologies (a star under a Δ²-sized palette) that is quadratic-plus in
	// n while a node can only ever learn deg(v) colors — so when the rows
	// would dwarf the O(n + m) edge-slot budget (see knownTierIsBitset),
	// Start falls back to the sorted known-colors prefix per CSR slot region
	// (binary-searched membership, merge-scan draw), which is bounded by the
	// slot count. Both tiers answer the identical queries; colorings and
	// Metrics are byte-identical either way.
	//
	// Sized in Start, where the palette is first known; a Runner re-Started
	// with a larger palette grows the backing slices once and reuses them.
	useBitset   bool
	knownBits   []uint64
	knownWords  int
	knownSorted []int32 // sorted-prefix tier: v's region is ix.Offsets[v]..ix.Offsets[v+1]
	numKnown    []int32
	// forceKnownTier pins the tier for the equivalence tests: 0 = select
	// automatically, >0 = bitset, <0 = sorted prefix.
	forceKnownTier int

	// live is the number of uncolored nodes — the completion frontier that
	// replaces the seed path's O(n) per-phase scan over all processes. It is
	// only decremented (colors are permanent), from node steps; the counter
	// is atomic because a worker team steps nodes concurrently, and the
	// final value is deterministic (decrements commute).
	live   atomic.Int64
	phases int

	// cancel is the cooperative cancellation hook (SetCancel), installed on
	// the engine by every Start.
	cancel func() bool
}

// nodeProc adapts one node of the Runner to the congest.Process interface.
// The n values live in one flat slice, allocated once per Runner.
type nodeProc struct {
	r *Runner
	v graph.NodeID
}

// Step implements congest.Process. The process never "halts" in the
// simulator's sense because colored nodes still answer queries; termination
// is driven by the phase loop.
func (p *nodeProc) Step(ctx *congest.Context, round int, inbox []congest.Message) bool {
	switch round % 3 {
	case 0:
		p.r.stepPropose(p.v, ctx, inbox)
	case 1:
		p.r.stepAnswer(p.v, ctx, inbox)
	case 2:
		p.r.stepAdopt(p.v, ctx, inbox)
	}
	return false
}

// NewRunner builds a trial kernel for g whose engine runs with the given
// worker count (≤ 1 runs rounds inline), fixed at construction; per-run
// knobs — palette, scope, seed, phase budget, initial colors — arrive with
// each Start/Run. The bool parameter is ignored: it once selected between two
// engines and is kept only so existing callers compile; pass false. It is
// Rebind on a zero Runner.
func NewRunner(g *graph.Graph, _ bool, workers int) *Runner {
	r := &Runner{workers: workers}
	r.Rebind(g)
	return r
}

// Rebind points the kernel at a new topology, reusing its engine (and the
// engine's worker team) and every flat array: a buffer grows only when g
// needs more room than every graph the Runner held before, so rebinding
// between graphs no larger than an earlier one allocates nothing. The next
// Start behaves byte-identically to a fresh NewRunner(g, false, workers)
// with the same worker count. The cancel hook is kept.
func (r *Runner) Rebind(g *graph.Graph) {
	n := g.NumNodes()
	r.g, r.ix = g, g.EdgeIndex()
	slots := r.ix.NumSlots()
	if r.net == nil {
		r.net = congest.New(g, congest.Config{Workers: r.workers})
	} else {
		r.net.Rebind(g)
	}
	r.procs = slices.Grow(r.procs[:0], n)[:n]
	for v := 0; v < n; v++ {
		r.procs[v] = nodeProc{r: r, v: graph.NodeID(v)}
		r.net.SetProcess(graph.NodeID(v), &r.procs[v])
	}
	r.color = slices.Grow(r.color[:0], n)[:n]
	r.proposal = slices.Grow(r.proposal[:0], n)[:n]
	r.announced = slices.Grow(r.announced[:0], n)[:n]
	r.nbrColor = slices.Grow(r.nbrColor[:0], slots)[:slots]
	r.propScratch = slices.Grow(r.propScratch[:0], slots)[:slots]
}

// SetCancel installs a cooperative cancellation hook that applies to every
// subsequent run, taking effect at the next Start: RunPhases polls it before
// every phase and the engine polls it between simulated rounds, so a
// canceled run — even a 10⁷-node one — stops within O(one round) and
// returns ErrCanceled with the partial Result (phases executed so far,
// partial Metrics). The hook must be cheap and safe to call from the
// Runner's goroutine; nil (the default) disables polling. Cancellation
// never corrupts the kernel: Start fully rewinds every flat array and the
// engine, so the next run on the same warm Runner is byte-identical to a
// fresh kernel's. The serving plane points a long-lived warm kernel at "the
// current request's cancel flag" once, instead of per run.
func (r *Runner) SetCancel(f func() bool) { r.cancel = f }

// canceled reports whether the cancellation hook has fired.
func (r *Runner) canceled() bool { return r.cancel != nil && r.cancel() }

// Close releases the kernel's network (parking the engine's persistent
// worker team, if it has one). Idempotent; the Runner must not be used after
// Close. Owners of long-lived kernels — the sweep engine's per-cell memo,
// any future session cache — call this on teardown so pooled goroutines
// never outlive the kernel they serve.
func (r *Runner) Close() { r.net.Close() }

// Start validates cfg and rewinds the kernel for a new run: network reset to
// cfg.Seed, every flat array cleared, the live counter recomputed from
// cfg.Initial. It allocates only when cfg.PaletteSize exceeds every palette
// this Runner has started before (the per-node palette bitset rows grow
// once); re-Starts at or below a seen palette allocate nothing.
func (r *Runner) Start(cfg Config) error {
	if cfg.PaletteSize <= 0 {
		return fmt.Errorf("trial: palette size must be positive, got %d", cfg.PaletteSize)
	}
	if cfg.PaletteSize > math.MaxInt32 {
		return fmt.Errorf("trial: palette size %d exceeds the int32 color range", cfg.PaletteSize)
	}
	if cfg.Scope == 0 {
		cfg.Scope = ScopeDistance2
	}
	if cfg.ExtraKnown != nil && len(cfg.ExtraKnown) != r.g.NumNodes() {
		return fmt.Errorf("trial: ExtraKnown has length %d, want %d", len(cfg.ExtraKnown), r.g.NumNodes())
	}
	r.cfg = cfg
	r.palette = int32(cfg.PaletteSize)
	r.phases = 0
	r.net.Reset(cfg.Seed)
	r.net.SetCancel(r.cancel) // Reset cleared it; nil keeps the hot path's single nil check

	n := r.g.NumNodes()
	r.knownWords = bitset.WordsFor(cfg.PaletteSize)
	r.useBitset = knownTierIsBitset(n, r.ix.NumSlots(), r.knownWords)
	if r.forceKnownTier != 0 {
		r.useBitset = r.forceKnownTier > 0 // test hook: pin one tier
	}
	if cfg.ExtraKnown != nil {
		r.useBitset = true // slot-less colors have no home in the sorted tier
	}
	if r.useBitset {
		if need := n * r.knownWords; need > cap(r.knownBits) {
			r.knownBits = make([]uint64, need)
		} else {
			r.knownBits = r.knownBits[:need]
			bitset.Row(r.knownBits).ClearAll()
		}
	} else {
		r.knownSorted = slices.Grow(r.knownSorted[:0], r.ix.NumSlots())[:r.ix.NumSlots()]
		r.numKnown = slices.Grow(r.numKnown[:0], n)[:n]
		clear(r.numKnown)
	}

	live := int64(0)
	for v := 0; v < n; v++ {
		c := uncolored
		if cfg.Initial != nil && cfg.Initial[v] != coloring.Uncolored {
			c = int32(cfg.Initial[v])
		} else {
			live++
		}
		r.color[v] = c
		r.proposal[v] = -1
		r.announced[v] = false // pre-colored nodes announce in the first propose round
	}
	for e := range r.nbrColor {
		r.nbrColor[e] = uncolored
	}
	if cfg.PreloadInitial && cfg.Initial != nil {
		for v := 0; v < n; v++ {
			base := r.ix.Offsets[v]
			targets := r.ix.Targets[base:r.ix.Offsets[v+1]]
			for i, u := range targets {
				if c := r.color[u]; c != uncolored {
					r.nbrColor[base+int32(i)] = c
					r.recordKnown(graph.NodeID(v), c)
				}
			}
			if r.color[v] != uncolored {
				r.announced[v] = true // knowledge delivered out of band; skip the broadcast
			}
		}
	}
	for v := range cfg.ExtraKnown {
		for _, c := range cfg.ExtraKnown[v] {
			if c >= 0 && c < r.palette {
				r.knownRow(graph.NodeID(v)).Set(int(c)) // bitset tier forced above
			}
		}
	}
	r.live.Store(live)
	return nil
}

// recordKnown marks color c as known used by a neighbor of v on whichever
// tier the run selected. On the sorted tier the caller must have a free slot
// in v's region for it (one per neighbor, the recordAdoptions/preload
// invariant).
func (r *Runner) recordKnown(v graph.NodeID, c int32) {
	if r.useBitset {
		if c >= 0 && c < r.palette {
			r.knownRow(v).Set(int(c))
		}
		return
	}
	base := r.ix.Offsets[v]
	known := r.knownSorted[base : base+r.numKnown[v]+1]
	lo, _ := slices.BinarySearch(known[:len(known)-1], c)
	copy(known[lo+1:], known[lo:])
	known[lo] = c
	r.numKnown[v]++
}

// knownTierIsBitset selects the known-colors representation for a run: the
// palette bitset rows unless their footprint would exceed twice the flat
// per-slot budget. The comparison is in bytes — the rows cost 8·n·words
// bytes, the sorted-prefix tier 4·(n + slots) (numKnown plus the int32 slot
// regions every other kernel structure is already sized by) — so wide
// palettes on sparse graphs (a (1+ε)Δ² palette at avg degree 8) fall back to
// the prefix tier instead of dominating the kernel's residency. The choice
// is a pure function of topology and palette, so it can never make two runs
// diverge; both tiers are byte-identical in results.
func knownTierIsBitset(n, slots, words int) bool {
	return 8*n*words <= 2*4*(n+slots)
}

// knownRow returns node v's palette bitset of colors known used by a
// neighbor (bitset tier only).
func (r *Runner) knownRow(v graph.NodeID) bitset.Row {
	base := int(v) * r.knownWords
	return bitset.Row(r.knownBits[base : base+r.knownWords])
}

// Phase executes one trial phase (three simulated rounds) and reports
// whether the coloring is complete afterwards. A warmed-up Phase performs no
// heap allocations.
func (r *Runner) Phase() bool {
	r.net.RunRounds(3)
	r.phases++
	return r.live.Load() == 0
}

// Graph returns the topology the kernel was built for.
func (r *Runner) Graph() *graph.Graph { return r.g }

// Complete reports whether every node is colored.
func (r *Runner) Complete() bool { return r.live.Load() == 0 }

// Phases returns the number of phases executed since Start.
func (r *Runner) Phases() int { return r.phases }

// Metrics returns the engine metrics accumulated since Start.
func (r *Runner) Metrics() congest.Metrics { return r.net.Metrics() }

// Color returns v's current color, coloring.Uncolored if it has none. This is
// the read-back hook for callers that drive Start/RunPhases themselves and
// want the result without a Finish allocation (the repair kernel's zero-alloc
// path reads back only the dirty set this way).
func (r *Runner) Color(v graph.NodeID) int { return int(r.color[v]) }

// RunPhases executes phases until the coloring completes or the phase budget
// of the Config passed to Start is exhausted — the loop of Run, factored out
// so callers can keep the colors in the kernel's flat arrays instead of
// paying Finish's allocation. A warmed-up Start + RunPhases + Color read-back
// cycle performs no heap allocations (only the budget *error* path formats).
// Calling it again without a fresh Start continues against the same budget.
func (r *Runner) RunPhases() error {
	maxPhases := r.cfg.MaxPhases
	capped := maxPhases > 0
	if !capped {
		maxPhases = defaultPhaseCap(r.g.NumNodes())
	}
	for r.phases < maxPhases && !r.Complete() {
		// Poll cancellation once per phase; the engine additionally polls it
		// between the phase's three rounds, so a cancel that fires mid-phase
		// stops the simulation within one round and is surfaced here on the
		// next iteration. Only the error path below allocates.
		if r.canceled() {
			return fmt.Errorf("%w (%d phases, %d nodes uncolored)",
				ErrCanceled, r.phases, r.live.Load())
		}
		r.Phase()
	}
	if r.canceled() && !r.Complete() {
		return fmt.Errorf("%w (%d phases, %d nodes uncolored)",
			ErrCanceled, r.phases, r.live.Load())
	}
	if !r.Complete() && !capped {
		return fmt.Errorf("%w (%d phases, %d nodes uncolored)",
			ErrPhaseBudget, r.phases, r.live.Load())
	}
	return nil
}

// Finish assembles the Result of the run so far (the coloring slice is the
// only allocation).
func (r *Runner) Finish() Result {
	n := r.g.NumNodes()
	out := coloring.New(n)
	complete := true
	for v := 0; v < n; v++ {
		out[v] = int(r.color[v])
		if r.color[v] == uncolored {
			complete = false
		}
	}
	return Result{Coloring: out, Phases: r.phases, Metrics: r.net.Metrics(), Complete: complete}
}

// Run executes trial phases until the coloring is complete or the phase
// budget is exhausted. It may be called repeatedly with different configs;
// each call behaves exactly like a fresh run on a fresh network.
func (r *Runner) Run(cfg Config) (Result, error) {
	if err := r.Start(cfg); err != nil {
		return Result{}, err
	}
	budgetErr := r.RunPhases()
	res := r.Finish()
	if budgetErr != nil {
		if errors.Is(budgetErr, ErrCanceled) {
			res.Canceled = true
		} else {
			res.BudgetExhausted = true
		}
		return res, budgetErr
	}
	return res, nil
}

// Run executes trial phases on g until the coloring is complete or the phase
// budget is exhausted, on a freshly built kernel (closed before returning).
// Callers running the primitive repeatedly on one graph should build a
// Runner once and reuse it.
func Run(g *graph.Graph, cfg Config) (Result, error) {
	r := NewRunner(g, false, cfg.Workers)
	defer r.Close()
	return r.Run(cfg)
}

// stepPropose records adoption notifications from the previous phase and
// broadcasts this node's candidate (if live) or its fresh adoption.
func (r *Runner) stepPropose(v graph.NodeID, ctx *congest.Context, inbox []congest.Message) {
	r.recordAdoptions(v, inbox)
	r.proposal[v] = -1
	if r.color[v] != uncolored {
		if !r.announced[v] {
			ctx.Broadcast(kindAdopt, EncodeColor(int(r.color[v])))
			r.announced[v] = true
		}
		return
	}
	var cand int
	if r.cfg.AvoidKnownUsed {
		cand = r.pickAvoidingKnown(v, ctx)
	} else {
		cand = ctx.Rand().Intn(r.cfg.PaletteSize)
	}
	r.proposal[v] = int32(cand)
	ctx.Broadcast(kindPropose, EncodeColor(cand))
	// A node with no neighbors has nobody to object; it can adopt directly.
	if ctx.Degree() == 0 {
		r.color[v] = int32(cand)
		r.announced[v] = true
		r.live.Add(-1)
	}
}

// stepAnswer answers every proposing neighbor. For distance-2 scope a
// candidate conflicts if it equals this node's color or proposal, any of this
// node's other neighbors' colors, or another proposal received this phase.
// For distance-1 scope only this node's own color and proposal count.
//
// The inbox arrives sorted by sender (the message plane guarantees it), so
// the node's slot region is walked with a single merge pointer and each
// answer is addressed to the sender's out-slot directly — the whole step is
// O(deg) plus one in-place sort of the phase's proposal colors. The "used by
// a neighbor" membership test is one AND into the node's palette bitset row
// (or a binary search into the sorted prefix on the fallback tier).
func (r *Runner) stepAnswer(v graph.NodeID, ctx *congest.Context, inbox []congest.Message) {
	r.recordAdoptions(v, inbox)
	base := r.ix.Offsets[v]
	d2 := r.cfg.Scope == ScopeDistance2

	// Gather this phase's proposal colors into the scratch region; sorting
	// them makes "did two neighbors propose this color" a binary search. A
	// proposer is by definition uncolored, so it can never appear among the
	// known neighbor colors — no sender exclusion is needed there.
	props := r.propScratch[base:base:r.ix.Offsets[v+1]] // capped: appends stay in v's region
	if d2 {
		for i := range inbox {
			if inbox[i].Kind == kindPropose {
				props = append(props, int32(DecodeColor(inbox[i].Word)))
			}
		}
		slices.Sort(props)
	}

	nbr := 0 // merge pointer into v's neighbor list (inbox is sender-sorted)
	targets := r.ix.Targets[base:r.ix.Offsets[v+1]]
	for i := range inbox {
		m := &inbox[i]
		if m.Kind != kindPropose {
			continue
		}
		for targets[nbr] != m.From {
			nbr++
		}
		cand := int32(DecodeColor(m.Word))
		conflict := r.color[v] == cand || (r.proposal[v] == cand && r.color[v] == uncolored)
		if d2 && !conflict {
			// Another neighbor of this node proposed the same color: the two
			// proposers are at distance <= 2 through us.
			if lo, dup := slices.BinarySearch(props, cand); dup && lo+1 < len(props) && props[lo+1] == cand {
				conflict = true
			} else if r.knownContains(v, base, cand) {
				conflict = true
			}
		}
		ctx.SendToNeighbor(nbr, kindAnswer, EncodeAnswer(int(cand), conflict))
	}
}

// stepAdopt adopts the proposal if every neighbor answered "no conflict".
func (r *Runner) stepAdopt(v graph.NodeID, ctx *congest.Context, inbox []congest.Message) {
	if r.proposal[v] < 0 || r.color[v] != uncolored {
		return
	}
	answers := 0
	for i := range inbox {
		if inbox[i].Kind != kindAnswer {
			continue
		}
		color, conflict := DecodeAnswer(inbox[i].Word)
		if int32(color) == r.proposal[v] {
			answers++
			if conflict {
				r.proposal[v] = -1
				return
			}
		}
	}
	if answers == ctx.Degree() {
		r.color[v] = r.proposal[v]
		r.announced[v] = false // broadcast in the next propose round
		r.live.Add(-1)
	}
	r.proposal[v] = -1
}

// knownContains reports whether color cand is known used by a neighbor of
// v, on whichever tier the run selected. base is v's slot-region offset.
func (r *Runner) knownContains(v graph.NodeID, base int32, cand int32) bool {
	if r.useBitset {
		return r.knownRow(v).Test(int(cand))
	}
	known := r.knownSorted[base : base+r.numKnown[v]]
	_, used := slices.BinarySearch(known, cand)
	return used
}

// pickAvoidingKnown draws a uniform candidate among the palette colors not
// known to be used by a neighbor; if every color is known used (impossible
// for a (Δ+1)-sized palette), it falls back to the whole palette. On the
// bitset tier the distinct-color count is a popcount and the idx-th free
// color a word scan (NthZero) — the row stores each color once and only
// in-palette colors, which is exactly the distinct/in-palette filtering the
// sorted-region merge of the fallback tier performs; both tiers therefore
// draw the identical color from the identical random stream.
func (r *Runner) pickAvoidingKnown(v graph.NodeID, ctx *congest.Context) int {
	if r.useBitset {
		known := r.knownRow(v)
		free := r.cfg.PaletteSize - known.Count()
		if free <= 0 {
			return ctx.Rand().Intn(r.cfg.PaletteSize)
		}
		idx := ctx.Rand().Intn(free)
		if c := known.NthZero(idx, r.cfg.PaletteSize); c >= 0 {
			return c
		}
		return ctx.Rand().Intn(r.cfg.PaletteSize)
	}
	base := r.ix.Offsets[v]
	known := r.knownSorted[base : base+r.numKnown[v]]
	// Count the distinct known colors inside the palette (the region is
	// sorted; duplicates and out-of-palette colors are skipped).
	used := 0
	prev := int32(-1)
	for _, c := range known {
		if c != prev && c < r.palette {
			used++
			prev = c
		}
	}
	free := r.cfg.PaletteSize - used
	if free <= 0 {
		return ctx.Rand().Intn(r.cfg.PaletteSize)
	}
	idx := ctx.Rand().Intn(free)
	// Select the idx-th free color by merging [0, palette) against the
	// sorted known region.
	j := 0
	for c := int32(0); c < r.palette; c++ {
		for j < len(known) && known[j] < c {
			j++
		}
		if j < len(known) && known[j] == c {
			continue
		}
		if idx == 0 {
			return int(c)
		}
		idx--
	}
	return ctx.Rand().Intn(r.cfg.PaletteSize)
}

// recordAdoptions folds adoption notifications into the node's slot region:
// nbrColor gets the sender's color at its neighbor position, and the color
// is recorded in the known-colors tier — set in the palette bitset row on
// the common tier (in-palette colors only: out-of-palette colors, possible
// via Config.Initial, can never match a candidate), or inserted into the
// sorted prefix on the fallback tier. The inbox is sorted by sender, so one
// merge pointer finds every sender's slot in O(deg) total.
func (r *Runner) recordAdoptions(v graph.NodeID, inbox []congest.Message) {
	base := r.ix.Offsets[v]
	targets := r.ix.Targets[base:r.ix.Offsets[v+1]]
	nbr := 0
	for i := range inbox {
		m := &inbox[i]
		if m.Kind != kindAdopt {
			continue
		}
		for targets[nbr] != m.From {
			nbr++
		}
		if r.nbrColor[base+int32(nbr)] != uncolored {
			continue // colors are permanent; an adoption is announced once
		}
		c := int32(DecodeColor(m.Word))
		r.nbrColor[base+int32(nbr)] = c
		r.recordKnown(v, c)
	}
}
