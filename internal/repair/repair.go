// Package repair is the incremental side of the robustness plane: given a
// set of dirty nodes — corrupted by a fault injector, invalidated by churn,
// or flagged by the verifier's conflict-node scan — it recolors only the
// affected distance-2 neighborhoods instead of rerunning a full coloring.
//
// The kernel rests on one locality fact. Let D be the dirty set and
// B = N²[D] its closed distance-2 ball. Uncoloring exactly D and re-running
// the trial primitive confined to B is indistinguishable, for every dirty
// node, from running it on the whole graph: a dirty node's proposal is
// answered by its neighbors (⊆ N[D] ⊆ B), and each answerer's veto knowledge
// covers all its own neighbors, which sit within distance 2 of D and hence
// inside B as well. Nodes outside B can therefore be frozen wholesale — they
// neither step nor receive — and the repaired coloring is valid by the same
// argument that makes the trial primitive correct globally.
//
// Two execution modes realize the confinement (byte-different but both
// valid; fixed colors outside the dirty set are never touched in either):
//
//   - ModeLocal extracts the induced subgraph G[N[D]] — the dirty nodes and
//     their neighbors, the rest of B entering only as preloaded color
//     knowledge — and runs a fresh trial kernel on it. The extraction and
//     every phase cost O(|B|) work: nothing scales with n after the
//     session's first local repair, the fastest path when balls are small
//     (the repair-locality gate's regime).
//   - ModeGlobal reuses the session's warm full-graph trial kernel — and
//     through it a warm congest.Engine via Reset — with an activation mask
//     confining the run to B. Nothing is rebuilt between repairs, the
//     reuse machinery the engine was designed for.
//
// Both modes report rounds, messages, and the exact recolored-node set, and
// both are deterministic per seed: a warm session and a freshly built one
// produce byte-identical repairs (the property suite pins this).
package repair

import (
	"fmt"
	"slices"

	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/trial"
	"d2color/internal/verify"
)

// Mode selects how a repair run is confined to the dirty ball.
type Mode int

const (
	// ModeLocal runs a fresh trial kernel on the subgraph induced by the
	// dirty nodes and their neighbors. Cheapest when |ball| ≪ n.
	ModeLocal Mode = iota
	// ModeGlobal runs the session's warm full-graph kernel under a
	// partial-activation mask covering the ball, reusing the warm
	// congest.Engine via Reset.
	ModeGlobal
)

func (m Mode) String() string {
	if m == ModeGlobal {
		return "global"
	}
	return "local"
}

// Options configures a Session.
type Options struct {
	// Palette is the repair palette [0, Palette); 0 means Δ²+1 for the
	// session's graph — large enough that a dirty node always has a free
	// color no matter what fixed colors surround it.
	Palette int
	// Mode selects local-subgraph or warm-global confinement.
	Mode Mode
	// Workers is the trial kernels' engine worker count (≤ 1 runs inline;
	// byte-identical results either way).
	Workers int
	// MaxPhases bounds each repair run; 0 means run to completion (with the
	// trial package's phase-cap backstop).
	MaxPhases int
	// Faults is an optional fault model installed for repair runs — repair
	// itself can be exercised under message loss and crashes. Incomplete
	// repairs then simply report Complete == false; Stabilize loops until
	// the coloring is clean anyway.
	Faults congest.FaultModel
	// Cancel is an optional cooperative cancellation hook threaded into every
	// kernel the session drives: the trial configs of both repair modes (so a
	// confined run stops within O(one simulated round)), the conflict-scan
	// checker, and Stabilize's iteration loop. A canceled call returns
	// trial.ErrCanceled (wrapped); the session itself stays fully usable —
	// the working coloring simply keeps whatever the interrupted run had
	// committed, which is always a valid partial state (colors are only ever
	// written after a run finishes its read-back). nil disables polling.
	Cancel func() bool
	// ScratchReports makes Repair reuse one session-owned buffer for
	// Report.Recolored instead of allocating a fresh slice per call: the
	// returned slice is then valid only until the next Repair on this
	// session. Combined with ModeGlobal this makes the warm steady-state
	// repair path allocation-free — the serving plane's recolor requests
	// run with it on. Off by default: callers that retain reports across
	// calls (Stabilize's per-iteration list, cross-run comparisons) keep
	// the safe copying behavior.
	ScratchReports bool
}

// Report describes one repair run.
type Report struct {
	// Dirty is the number of distinct dirty nodes after deduplication.
	Dirty int
	// Ball is |N²[D]|, the closed distance-2 ball of the dirty set — the
	// region the run was confined to.
	Ball int
	// Recolored lists, ascending, exactly the nodes whose color changed
	// (including formerly uncolored nodes that got a color). Always a
	// subset of the dirty set: fixed nodes are never touched.
	Recolored []graph.NodeID
	// Phases and Rounds are the trial phases executed and the simulated
	// rounds they cost (3 per phase).
	Phases int
	Rounds int
	// Metrics is the engine's message/bandwidth accounting for the run.
	Metrics congest.Metrics
	// Complete reports whether every dirty node ended up colored. False is
	// possible only under an explicit MaxPhases bound or injected faults.
	Complete bool
	// Locality is |Recolored| / |Ball| — the fraction of the affected
	// region the repair actually rewrote (0 for an empty ball). The
	// experiment plane's repair-locality column.
	Locality float64
}

// Session is a reusable repair kernel bound to one graph and one working
// coloring. The working coloring is owned by the session (NewSession
// copies); Colors exposes it, Repair and Stabilize mutate it in place.
// Sessions keep their scratch (ball marks, masks, the warm global kernel)
// across calls, so steady-state churn repair stops allocating. Not safe for
// concurrent use.
type Session struct {
	g       *graph.Graph
	colors  coloring.Coloring
	opts    Options
	palette int

	runner  *trial.Runner // ModeGlobal's warm kernel, built on first use
	checker *verify.Checker

	ballMark  *graph.MarkSet
	dirtyMark *graph.MarkSet
	dirty     []graph.NodeID // the deduplicated dirty set, ascending
	ball      []graph.NodeID // N²[D] in walk order
	oldColors []int          // pre-repair colors of the dirty set, index-aligned with dirty
	recolored []graph.NodeID // Report.Recolored scratch under Options.ScratchReports

	// ModeGlobal scratch.
	active  []bool
	initial coloring.Coloring
	// ModeLocal scratch: the sorted node list N[D] of the extracted
	// subgraph, the graph-sized old→new index InducedSubgraphOf reuses
	// across calls (allocated once per bound graph, written only at the kept
	// entries), and the subgraph run's initial coloring and per-node
	// out-of-subgraph colors, regrown only when a ball outgrows them.
	keep       []graph.NodeID
	subIndex   []int32
	subInitial coloring.Coloring
	subExtra   [][]int32
}

// NewSession builds a repair session for g starting from colors (copied, so
// the caller's slice is never mutated). colors may be partial; uncolored
// nodes are simply candidates for future dirty sets. It panics if colors and
// g disagree on the node count.
func NewSession(g *graph.Graph, colors coloring.Coloring, opts Options) *Session {
	n := g.NumNodes()
	if len(colors) != n {
		panic(fmt.Sprintf("repair: coloring has %d entries for %d nodes", len(colors), n))
	}
	s := &Session{opts: opts, checker: verify.NewChecker()}
	s.checker.SetCancel(opts.Cancel)
	s.bind(g, colors)
	return s
}

// canceled reports whether the session's cancellation hook has fired.
func (s *Session) canceled() bool { return s.opts.Cancel != nil && s.opts.Cancel() }

func (s *Session) bind(g *graph.Graph, colors coloring.Coloring) {
	s.g = g
	s.colors = slices.Clone(colors)
	s.palette = s.opts.Palette
	if s.palette <= 0 {
		d := g.MaxDegree()
		s.palette = d*d + 1
	}
	s.ballMark = graph.NewMarkSet(g.NumNodes())
	s.dirtyMark = graph.NewMarkSet(g.NumNodes())
	if s.runner != nil {
		s.runner.Close()
		s.runner = nil
	}
	s.active = nil
	s.initial = nil
	s.subIndex = nil
}

// Rebind points the session at a new topology and working coloring — the
// post-Compact step of a churn epoch, where the overlay's deltas were folded
// into a fresh CSR. All topology-bound scratch (including the warm global
// kernel) is dropped and rebuilt on demand.
func (s *Session) Rebind(g *graph.Graph, colors coloring.Coloring) {
	if len(colors) != g.NumNodes() {
		panic(fmt.Sprintf("repair: coloring has %d entries for %d nodes", len(colors), g.NumNodes()))
	}
	s.bind(g, colors)
}

// Close releases the warm global kernel (if one was built). The session must
// not be used afterwards.
func (s *Session) Close() {
	if s.runner != nil {
		s.runner.Close()
		s.runner = nil
	}
}

// Graph returns the session's current topology.
func (s *Session) Graph() *graph.Graph { return s.g }

// Colors returns the session's working coloring — the live slice, not a
// copy; treat it as read-only between repair calls.
func (s *Session) Colors() coloring.Coloring { return s.colors }

// Palette returns the session's effective repair palette size.
func (s *Session) Palette() int { return s.palette }

// Conflicts returns the current distance-2 conflict-node set of the working
// coloring, sorted ascending — the detection half of the stabilization loop.
func (s *Session) Conflicts() []graph.NodeID {
	return s.checker.AppendConflictNodesD2(s.g, s.colors, nil)
}

// Repair uncolors the dirty nodes and recolors them confined to their
// distance-2 ball, leaving every other node's color untouched. dirty may
// contain duplicates and uncolored nodes (churn introduces both); it is not
// modified. Nodes out of range are an error. An empty (or nil) dirty set is
// a no-op reporting Complete.
func (s *Session) Repair(dirty []graph.NodeID, seed uint64) (Report, error) {
	n := s.g.NumNodes()
	s.dirtyMark.Reset()
	s.dirty = s.dirty[:0]
	for _, v := range dirty {
		if v < 0 || int(v) >= n {
			return Report{}, fmt.Errorf("repair: dirty node %d out of range [0, %d)", v, n)
		}
		if s.dirtyMark.Add(v) {
			s.dirty = append(s.dirty, v)
		}
	}
	if len(s.dirty) == 0 {
		return Report{Complete: true}, nil
	}
	if s.canceled() {
		return Report{}, fmt.Errorf("repair: %w", trial.ErrCanceled)
	}
	slices.Sort(s.dirty)

	// The ball B = N²[D]: the dirty nodes, their neighbors, and their
	// neighbors' neighbors — exactly the set of nodes whose participation
	// the dirty trials can observe.
	s.ballMark.Reset()
	s.ball = s.ball[:0]
	for _, d := range s.dirty {
		if s.ballMark.Add(d) {
			s.ball = append(s.ball, d)
		}
		for _, u := range s.g.Neighbors(d) {
			if s.ballMark.Add(u) {
				s.ball = append(s.ball, u)
			}
			for _, w := range s.g.Neighbors(u) {
				if s.ballMark.Add(w) {
					s.ball = append(s.ball, w)
				}
			}
		}
	}
	// Both modes write colors back to dirty nodes only, so the dirty set's
	// old colors are all the report needs to find what changed.
	s.oldColors = s.oldColors[:0]
	for _, v := range s.dirty {
		s.oldColors = append(s.oldColors, s.colors[v])
	}

	var (
		res Report
		err error
	)
	if s.opts.Mode == ModeGlobal {
		res, err = s.repairGlobal(seed)
	} else {
		res, err = s.repairLocal(seed)
	}
	if err != nil {
		return Report{}, err
	}

	res.Dirty = len(s.dirty)
	res.Ball = len(s.ball)
	if s.opts.ScratchReports {
		res.Recolored = s.recolored[:0]
	}
	for i, v := range s.dirty {
		if s.colors[v] != s.oldColors[i] {
			res.Recolored = append(res.Recolored, v)
		}
	}
	if s.opts.ScratchReports {
		s.recolored = res.Recolored
	}
	if res.Ball > 0 {
		res.Locality = float64(len(res.Recolored)) / float64(res.Ball)
	}
	return res, nil
}

// repairLocal extracts G[N[D]] — just the dirty nodes and their direct
// neighbors — and runs a fresh trial kernel on it to completion. The rest of
// the ball never enters the subgraph: its only role is color context for the
// answerers, which preloaded knowledge supplies instead (Initial colors are
// pre-announced, and each boundary node carries the colors of its
// out-of-subgraph neighbors via ExtraKnown). Correctness is the package-doc
// ball argument one step tighter: every answerer of a dirty proposal is in
// N[D], every common neighbor of two dirty nodes is in N[D], and every veto
// an answerer could base on an N²[D]-boundary color is preserved verbatim in
// its preloaded known set.
func (s *Session) repairLocal(seed uint64) (Report, error) {
	s.keep = s.keep[:0]
	for _, d := range s.dirty {
		s.keep = append(s.keep, d)
		s.keep = append(s.keep, s.g.Neighbors(d)...)
	}
	slices.Sort(s.keep)
	s.keep = slices.Compact(s.keep)
	if s.subIndex == nil {
		s.subIndex = make([]int32, s.g.NumNodes())
	}
	sub := s.g.InducedSubgraphOf(s.keep, s.subIndex)
	ns := sub.NumNodes()
	if cap(s.subInitial) < ns {
		s.subInitial = make(coloring.Coloring, ns)
	}
	if cap(s.subExtra) < ns {
		s.subExtra = append(s.subExtra[:cap(s.subExtra)], make([][]int32, ns-cap(s.subExtra))...)
	}
	initial, extra := s.subInitial[:ns], s.subExtra[:ns]
	for i := range extra {
		extra[i] = extra[i][:0]
	}
	for i, orig := range s.keep {
		if s.dirtyMark.Contains(orig) {
			initial[i] = coloring.Uncolored
			continue // a dirty node's full neighborhood is in the subgraph
		}
		initial[i] = s.colors[orig]
		// Both lists are ascending and the relabelling is monotone, so one
		// merge walk finds the neighbors that stayed outside the subgraph.
		inSub := sub.Neighbors(graph.NodeID(i))
		for _, w := range s.g.Neighbors(orig) {
			if len(inSub) > 0 && s.keep[inSub[0]] == w {
				inSub = inSub[1:]
				continue
			}
			if s.colors[w] != coloring.Uncolored {
				extra[i] = append(extra[i], int32(s.colors[w]))
			}
		}
	}
	r := trial.NewRunner(sub, false, s.opts.Workers)
	defer r.Close()
	res, err := r.Run(trial.Config{
		PaletteSize:    s.palette,
		Scope:          trial.ScopeDistance2,
		MaxPhases:      s.opts.MaxPhases,
		Seed:           seed,
		Initial:        initial,
		PreloadInitial: true,
		ExtraKnown:     extra,
		Faults:         s.opts.Faults,
		Cancel:         s.opts.Cancel,
	})
	if err != nil {
		return Report{}, err
	}
	for i, orig := range s.keep {
		if s.dirtyMark.Contains(orig) {
			s.colors[orig] = res.Coloring[i]
		}
	}
	return Report{
		Phases:   res.Phases,
		Rounds:   res.Metrics.Rounds,
		Metrics:  res.Metrics,
		Complete: res.Complete,
	}, nil
}

// repairGlobal runs the warm full-graph kernel under an activation mask
// covering the ball; everything outside is frozen.
func (s *Session) repairGlobal(seed uint64) (Report, error) {
	if s.runner == nil {
		s.runner = trial.NewRunner(s.g, false, s.opts.Workers)
	}
	n := s.g.NumNodes()
	if s.active == nil {
		s.active = make([]bool, n)
		s.initial = coloring.New(n)
	}
	clear(s.active)
	for _, v := range s.ball {
		s.active[v] = true
	}
	copy(s.initial, s.colors)
	for _, d := range s.dirty {
		s.initial[d] = coloring.Uncolored
	}
	// Start + RunPhases + Color read-back instead of Run: Finish would
	// materialize a full fresh coloring per call just so the dirty handful
	// can be copied out of it. Reading the kernel's flat color array
	// directly keeps the warm steady-state repair path allocation-free.
	if err := s.runner.Start(trial.Config{
		PaletteSize: s.palette,
		Scope:       trial.ScopeDistance2,
		MaxPhases:   s.opts.MaxPhases,
		Seed:        seed,
		Initial:     s.initial,
		Active:      s.active,
		Faults:      s.opts.Faults,
		Cancel:      s.opts.Cancel,
	}); err != nil {
		return Report{}, err
	}
	if err := s.runner.RunPhases(); err != nil {
		return Report{}, err
	}
	// A masked run leaves frozen uncolored nodes uncolored; completeness of
	// the *repair* is about the dirty set.
	complete := true
	for _, d := range s.dirty {
		s.colors[d] = s.runner.Color(d)
		if s.colors[d] == coloring.Uncolored {
			complete = false
		}
	}
	m := s.runner.Metrics()
	return Report{
		Phases:   s.runner.Phases(),
		Rounds:   m.Rounds,
		Metrics:  m,
		Complete: complete,
	}, nil
}

// RepairConflicts detects the current conflict-node set and repairs it —
// detection-seeded repair, the common churn-epoch step. Uncolored nodes are
// not conflicts; pass them to Repair explicitly (or use Stabilize, which
// sweeps both).
func (s *Session) RepairConflicts(seed uint64) (Report, error) {
	return s.Repair(s.Conflicts(), seed)
}

// Stabilize runs the self-stabilization loop: detect every conflicting or
// uncolored node, repair, repeat until the coloring is complete and
// conflict-free or maxIters repairs have run (maxIters <= 0 means 16). Under
// a fault-free configuration one iteration always suffices — uncoloring
// every conflict node makes the trial recolor them validly — so extra
// iterations only occur under injected loss. Returns one Report per
// iteration; err is non-nil if the loop exhausted maxIters while still
// unstable.
func (s *Session) Stabilize(seed uint64, maxIters int) ([]Report, error) {
	if maxIters <= 0 {
		maxIters = 16
	}
	var reports []Report
	var dirty []graph.NodeID
	for iter := 0; iter < maxIters; iter++ {
		if s.canceled() {
			return reports, fmt.Errorf("repair: stabilize %w", trial.ErrCanceled)
		}
		dirty = s.checker.AppendConflictNodesD2(s.g, s.colors, dirty[:0])
		// Sweep in uncolored nodes: self-stabilization must also finish
		// nodes that churn or loss left colorless.
		withUncolored := dirty
		for v := 0; v < s.g.NumNodes(); v++ {
			if s.colors[v] == coloring.Uncolored {
				withUncolored = append(withUncolored, graph.NodeID(v))
			}
		}
		if len(withUncolored) == 0 {
			return reports, nil
		}
		rep, err := s.Repair(withUncolored, seed+uint64(iter))
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	if dirty = s.checker.AppendConflictNodesD2(s.g, s.colors, dirty[:0]); len(dirty) == 0 {
		complete := true
		for _, c := range s.colors {
			if c == coloring.Uncolored {
				complete = false
				break
			}
		}
		if complete {
			return reports, nil
		}
	}
	return reports, fmt.Errorf("repair: still unstable after %d iterations (%d conflict nodes)", maxIters, len(dirty))
}
