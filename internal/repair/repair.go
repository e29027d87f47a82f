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
// The session realizes the confinement one step tighter than B: it
// extracts the induced subgraph G[N[D]] — the dirty nodes and their
// neighbors, the rest of B entering only as preloaded color knowledge — into
// session-owned storage and runs its local trial kernel on it, rebound to
// each epoch's subgraph. Fixed colors outside the dirty set are never
// touched. The extraction and every phase cost O(|B|) work and a warm epoch
// allocates nothing: nothing scales with n after the session's first
// repair.
//
// A repair reports rounds, messages, and the exact recolored-node set, and
// is deterministic per seed: a warm session and a freshly built one produce
// byte-identical repairs (the property suite pins this).
package repair

import (
	"fmt"
	"slices"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/trial"
	"d2color/internal/verify"
)

// Options configures a Session.
type Options struct {
	// Palette is the repair palette [0, Palette); 0 means Δ²+1 for the
	// session's graph — large enough that a dirty node always has a free
	// color no matter what fixed colors surround it.
	Palette int
	// Workers is the trial kernels' engine worker count (≤ 1 runs inline;
	// byte-identical results either way).
	Workers int
	// MaxPhases bounds each repair run; 0 means run to completion (with the
	// trial package's phase-cap backstop).
	MaxPhases int
	// Cancel is an optional cooperative cancellation hook threaded into every
	// kernel the session drives: the local trial kernel (so a confined run
	// stops within O(one simulated round)), the conflict-scan checker, and
	// Stabilize's iteration loop. A canceled call returns
	// trial.ErrCanceled (wrapped); the session itself stays fully usable —
	// the working coloring simply keeps whatever the interrupted run had
	// committed, which is always a valid partial state (colors are only ever
	// written after a run finishes its read-back). nil disables polling.
	Cancel func() bool
	// ScratchReports makes Repair reuse one session-owned buffer for
	// Report.Recolored instead of allocating a fresh slice per call: the
	// returned slice is then valid only until the next Repair on this
	// session. With it the warm steady-state repair path is allocation-free
	// — the serving plane's recolor requests run with it on. Off by default:
	// callers that retain reports across calls (Stabilize's per-iteration
	// list, cross-run comparisons) keep the safe copying behavior.
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
	// possible only under an explicit MaxPhases bound.
	Complete bool
	// Locality is |Recolored| / |Ball| — the fraction of the affected
	// region the repair actually rewrote (0 for an empty ball). The
	// experiment plane's repair-locality column.
	Locality float64
}

// Session is a reusable repair kernel bound to one graph and one working
// coloring. The working coloring is owned by the session (NewSession
// copies); Colors exposes it, Repair and Stabilize mutate it in place.
// Sessions keep their scratch (ball marks, subgraph storage, the local
// kernel) across calls, so steady-state churn repair stops allocating. Not
// safe for concurrent use.
type Session struct {
	g       *graph.Graph
	colors  coloring.Coloring
	opts    Options
	palette int

	checker *verify.Checker

	ballMark  *graph.MarkSet
	dirtyMark *graph.MarkSet
	dirty     []graph.NodeID // the deduplicated dirty set, ascending
	oldColors []int          // pre-repair colors of the dirty set, index-aligned with dirty
	recolored []graph.NodeID // Report.Recolored scratch under Options.ScratchReports

	// Repair scratch: the sorted node list N[D] of the extracted
	// subgraph, the graph-sized old→new index the extraction reuses across
	// calls (allocated once per bound graph, written only at the kept
	// entries), the subgraph's storage, the run's initial coloring and
	// per-node out-of-subgraph colors (windows of one flat slice), and the
	// local kernel rebound to each epoch's subgraph (kept across epochs
	// under retainLocal's bound). All of it grows only when a ball outgrows
	// every earlier one.
	keep        []graph.NodeID
	subIndex    []int32
	sub         graph.Subgraph
	subInitial  coloring.Coloring
	subExtra    [][]int32
	extraColors []int32
	local       *trial.Runner
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
	s.subIndex = nil
}

// Rebind points the session at a new topology and working coloring — the
// post-Compact step of a churn epoch, where the overlay's deltas were folded
// into a fresh CSR. All topology-bound scratch is dropped and rebuilt on
// demand; the local kernel and subgraph storage, rebound every epoch anyway,
// are kept.
func (s *Session) Rebind(g *graph.Graph, colors coloring.Coloring) {
	if len(colors) != g.NumNodes() {
		panic(fmt.Sprintf("repair: coloring has %d entries for %d nodes", len(colors), g.NumNodes()))
	}
	s.bind(g, colors)
}

// Close releases the local kernel, if built, and through it its engine's
// worker team. The session must not be used afterwards.
func (s *Session) Close() {
	if s.local != nil {
		s.local.Close()
		s.local = nil
	}
}

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

	// |B| for the report, B = N²[D]: the dirty nodes, their neighbors, and
	// their neighbors' neighbors — exactly the set of nodes whose
	// participation the dirty trials can observe.
	s.ballMark.Reset()
	ball := 0
	for _, d := range s.dirty {
		if s.ballMark.Add(d) {
			ball++
		}
		for _, u := range s.g.Neighbors(d) {
			if s.ballMark.Add(u) {
				ball++
			}
			for _, w := range s.g.Neighbors(u) {
				if s.ballMark.Add(w) {
					ball++
				}
			}
		}
	}
	// The repair writes colors back to dirty nodes only, so the dirty set's
	// old colors are all the report needs to find what changed.
	s.oldColors = s.oldColors[:0]
	for _, v := range s.dirty {
		s.oldColors = append(s.oldColors, s.colors[v])
	}

	res, err := s.repairLocal(seed)
	if err != nil {
		return Report{}, err
	}

	res.Dirty = len(s.dirty)
	res.Ball = ball
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
// neighbors — and runs the session's local trial kernel, rebound to it, to
// completion. The rest of the ball never enters the subgraph: its only role
// is color context for the answerers, which preloaded knowledge supplies
// instead (Initial colors are pre-announced, and each boundary node carries
// the colors of its out-of-subgraph neighbors via ExtraKnown). Correctness
// is the package-doc ball argument one step tighter: every answerer of a
// dirty proposal is in N[D], every common neighbor of two dirty nodes is in
// N[D], and every veto an answerer could base on an N²[D]-boundary color is
// preserved verbatim in its preloaded known set.
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
	sub := s.g.InducedSubgraphInto(s.keep, s.subIndex, &s.sub)
	ns := sub.NumNodes()
	initial := slices.Grow(s.subInitial[:0], ns)[:ns]
	extra := slices.Grow(s.subExtra[:0], ns)[:ns]
	known := s.extraColors[:0]
	// keep and dirty are both ascending, so one merge pointer finds the
	// dirty nodes. Each list of extra is a capped window of known: a later
	// append that moves known leaves the earlier windows intact.
	di := 0
	for i, orig := range s.keep {
		if di < len(s.dirty) && s.dirty[di] == orig {
			initial[i] = coloring.Uncolored
			di++
		} else {
			initial[i] = s.colors[orig]
		}
		start := len(known)
		for _, w := range s.sub.Outside(graph.NodeID(i)) { // none for a dirty node
			if c := s.colors[w]; c != coloring.Uncolored {
				known = append(known, int32(c))
			}
		}
		extra[i] = known[start:len(known):len(known)]
	}
	s.subInitial, s.subExtra, s.extraColors = initial, extra, known

	if s.local == nil {
		s.local = trial.NewRunner(sub, false, s.opts.Workers)
		s.local.SetCancel(s.opts.Cancel)
	} else {
		s.local.Rebind(sub)
	}
	r := s.local
	err := r.Start(trial.Config{
		PaletteSize:    s.palette,
		Scope:          trial.ScopeDistance2,
		MaxPhases:      s.opts.MaxPhases,
		Seed:           seed,
		Initial:        initial,
		PreloadInitial: true,
		ExtraKnown:     extra,
	})
	if err == nil {
		err = r.RunPhases()
	}
	var rep Report
	if err == nil {
		di = 0
		for i, orig := range s.keep {
			if di < len(s.dirty) && s.dirty[di] == orig {
				s.colors[orig] = r.Color(graph.NodeID(i))
				di++
			}
		}
		m := r.Metrics()
		rep = Report{Phases: r.Phases(), Rounds: m.Rounds, Metrics: m, Complete: r.Complete()}
	}
	if !s.retainLocal(ns) {
		r.Close()
		s.local = nil
	}
	return rep, err
}

// retainLocal reports whether the local kernel may be kept after an epoch
// on an ns-node subgraph. ExtraKnown forces its palette-bitset tier, whose
// rows take 8·ns·⌈palette/64⌉ bytes; the kernel stays only while they fit
// in the session graph's own CSR footprint, 4·(n + 1 + 2m) bytes, so a wide
// palette (Δ² on a hub-heavy graph) never parks a kernel larger than the
// graph it repairs. A dropped kernel is rebuilt by the next epoch.
func (s *Session) retainLocal(ns int) bool {
	rows := 8 * ns * bitset.WordsFor(s.palette)
	return rows <= 4*(s.g.NumNodes()+1+2*s.g.NumEdges())
}

// Stabilize runs the self-stabilization loop: detect every conflicting or
// uncolored node, repair, repeat until the coloring is complete and
// conflict-free or maxIters repairs have run (maxIters <= 0 means 16). A
// run-to-completion repair needs one iteration — uncoloring every conflict
// node makes the trial recolor them validly — so extra iterations only
// occur when MaxPhases cuts a repair short. Returns one Report per
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
		// nodes that churn or a capped repair left colorless.
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
