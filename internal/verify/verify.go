// Package verify is the correctness oracle for colorings: it checks
// distance-1 and distance-2 validity, completeness and palette bounds. Every
// test and every experiment run passes its output through these checks, so a
// bug in an algorithm cannot silently produce an invalid result.
//
// The checks run on a pooled Checker whose scratch — per-color generation
// marks over the dense color range, plus a pooled, cleared-in-place table for
// colors outside it — is reused across calls, so a warmed verifier performs
// zero heap allocations per pass (see BenchmarkVerify). The package-level
// functions draw Checkers from an internal pool; hot callers that verify in
// a loop can hold their own via NewChecker. A held Checker also certifies:
// after a valid CheckD2, RecheckD2 re-verifies a slightly changed coloring
// by visiting only the distance-2 neighborhoods of the changed nodes
// (recheck.go).
package verify

import (
	"fmt"
	"sync"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// Violation describes a single constraint violation found by a check.
type Violation struct {
	Kind string       // "uncolored", "conflict-d1", "conflict-d2", "palette"
	U, V graph.NodeID // offending node(s); V is -1 for single-node violations
	Info string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: u=%d v=%d %s", v.Kind, v.U, v.V, v.Info)
}

// Report is the outcome of a verification pass. When Canceled is set the
// pass was stopped early by the Checker's cooperative cancellation hook
// (SetCancel): Valid is false, and the other fields cover only the prefix
// scanned before the cancel fired — the report must not be treated as a
// verdict on the coloring.
type Report struct {
	Valid      bool
	Violations []Violation
	ColorsUsed int
	MaxColor   int
	Canceled   bool
}

// Error returns nil if the report is valid, otherwise an error summarizing
// the first violation and the violation count.
func (r Report) Error() error {
	if r.Valid {
		return nil
	}
	first := ""
	if len(r.Violations) > 0 {
		first = r.Violations[0].String()
	}
	return fmt.Errorf("verify: %d violation(s), first: %s", len(r.Violations), first)
}

// maxViolations bounds how many violations a report records, so that a badly
// broken coloring does not produce an enormous report.
const maxViolations = 64

// denseColorLimit bounds the dense per-color marks: a Checker's marks are
// sized min(maxColor+1, denseColorLimit) entries of 2 bytes, so the worst
// case — a coloring whose largest color is 4M or more — is 8 MiB per
// Checker, far above any sane palette (a Δ²+1 palette at Δ = 32 is 2 KiB).
// Colors outside [0, denseColorLimit) go through the Checker's slow table.
const denseColorLimit = 1 << 22

// Checker holds the reusable scratch of the verification passes. A Checker
// is not safe for concurrent use; the package-level Check functions draw one
// from an internal pool per call, loops that verify many colorings can hold
// their own. A warmed Checker allocates nothing per pass on a valid
// coloring.
type Checker struct {
	// marks are the per-color generation marks over colors [0, limit): a
	// color is in the current neighborhood iff marks[color] == gen, so one
	// generation bump empties the set and each member costs one compare and
	// one store. 16-bit marks halve the footprint of 32-bit ones at the
	// same speed: the clear they need every 2¹⁶ neighborhoods, when the
	// generation wraps, amortizes to under 2 bytes per neighborhood for
	// palettes below 2¹⁶ colors. Who previously held a duplicated color is
	// recovered by re-walking the neighborhood — conflicts are the rare
	// case, so the scan stays one mark per node on valid colorings instead
	// of maintaining a holder table.
	marks []uint16
	gen   uint16
	// slow is the pooled association table for colors outside the dense
	// range (huge values from an upstream overflow bug, or negative
	// sentinels other than Uncolored). Unlike the former per-call map it is
	// allocated once per Checker and reset in place with clear() — the
	// buckets survive, so a warmed verifier stays allocation-free — and it
	// keeps O(1) lookups so a mass-corrupt coloring (n distinct huge
	// colors) degrades linearly, not quadratically.
	slow map[int]graph.NodeID
	// colors is the cache-dense int32 copy of the coloring the distance-2
	// scan reads instead of the []int original: every in-range color fits
	// (the dense limit is 4M), Uncolored stays -1, and out-of-range colors
	// become the slowColor marker. The scan's random accesses then touch
	// half the memory.
	colors []int32
	// statsRow is the plain row behind the branch-free distinct-color count
	// (ColorsUsed = one Set per node + one popcount).
	statsRow bitset.Row
	// nodeSeen deduplicates the conflict-node-set scan (see conflicts.go):
	// one bit per node, cleared per call. Allocated on the first conflict-set
	// call, so count-only Checkers never pay for it.
	nodeSeen bitset.Row
	// cert is the last valid distance-2 verdict and counts the per-color use
	// counts of the coloring it certified (RecheckD2, recheck.go). prepare
	// voids both: any pass that rewrites colors ends the certificate.
	cert     certificate
	counts   []int32
	countsOK bool
	// cancel is the optional cooperative cancellation hook (SetCancel),
	// polled every cancelStride nodes by the O(n+m) conflict scan. nil (the
	// default, and always the case for pool-drawn Checkers) disables polling.
	cancel func() bool
}

// cancelStride is how many nodes the conflict scan processes between polls
// of the cancellation hook: frequent enough that a canceled 10⁷-node pass
// stops in well under a millisecond, rare enough to be free on the hot path.
const cancelStride = 2048

// SetCancel installs a cooperative cancellation hook on this Checker: the
// conflict scans poll it periodically and, once it returns true, return a
// Report with Canceled set instead of finishing the pass. nil removes the
// hook. The package-level Check functions use pooled Checkers without hooks;
// only owners of long-lived Checkers (the serving plane's sessions) install
// one.
func (ch *Checker) SetCancel(f func() bool) { ch.cancel = f }

// slowColor marks, in the int32 scratch, a color outside [0, limit); the
// actual value is read back from the original coloring on this (corrupt,
// hence rare) path.
const slowColor = int32(-2)

// NewChecker returns an empty Checker; its scratch grows on first use and is
// reused afterwards.
func NewChecker() *Checker {
	return &Checker{slow: make(map[int]graph.NodeID)}
}

// resetMarks empties the per-color marks in O(1) by advancing the generation.
func (ch *Checker) resetMarks() {
	ch.gen++
	if ch.gen == 0 { // wrapped after 2¹⁶ resets: clear once, start over
		clear(ch.marks)
		ch.gen = 1
	}
}

// resetSlow empties the out-of-range table in place (bucket-preserving).
func (ch *Checker) resetSlow() {
	if len(ch.slow) > 0 {
		clear(ch.slow)
	}
}

var checkerPool = sync.Pool{New: func() any { return NewChecker() }}

// release returns a package-level call's Checker to the pool, dropping its
// certificate first so an idle pooled Checker never pins the caller's graph.
func release(ch *Checker) {
	ch.cert = certificate{}
	checkerPool.Put(ch)
}

// CheckD2 verifies that c is a complete, valid distance-2 coloring of g with
// all colors inside [0, paletteSize). Pass paletteSize <= 0 to skip the
// palette bound check.
func CheckD2(g *graph.Graph, c coloring.Coloring, paletteSize int) Report {
	ch := checkerPool.Get().(*Checker)
	defer release(ch)
	return ch.CheckD2(g, c, paletteSize)
}

// CheckD1 verifies that c is a complete, valid (distance-1) vertex coloring
// of g with all colors inside [0, paletteSize). Pass paletteSize <= 0 to skip
// the palette bound check.
func CheckD1(g *graph.Graph, c coloring.Coloring, paletteSize int) Report {
	ch := checkerPool.Get().(*Checker)
	defer release(ch)
	return ch.CheckD1(g, c, paletteSize)
}

// CheckPartialD2 verifies that the colored subset of c has no distance-2
// conflicts (uncolored nodes are allowed). This is the invariant maintained
// at every intermediate step of every algorithm.
func CheckPartialD2(g *graph.Graph, c coloring.Coloring) Report {
	ch := checkerPool.Get().(*Checker)
	defer release(ch)
	return ch.CheckPartialD2(g, c)
}

// CheckD2 is the Checker-scoped form of the package-level CheckD2.
func (ch *Checker) CheckD2(g *graph.Graph, c coloring.Coloring, paletteSize int) Report {
	return ch.check(g, c, paletteSize, true)
}

// CheckD1 is the Checker-scoped form of the package-level CheckD1.
func (ch *Checker) CheckD1(g *graph.Graph, c coloring.Coloring, paletteSize int) Report {
	return ch.check(g, c, paletteSize, false)
}

// CheckPartialD2 is the Checker-scoped form of the package-level
// CheckPartialD2.
func (ch *Checker) CheckPartialD2(g *graph.Graph, c coloring.Coloring) Report {
	rep := Report{Valid: true}
	if len(c) != g.NumNodes() {
		rep.addViolation(Violation{Kind: "palette", U: -1, V: -1,
			Info: fmt.Sprintf("coloring has %d entries for %d nodes", len(c), g.NumNodes())})
		return rep
	}
	limit, maxColor := ch.prepare(c)
	ch.checkConflicts(g, c, true, &rep)
	ch.fillColorStats(c, limit, maxColor, &rep)
	return rep
}

func (ch *Checker) check(g *graph.Graph, c coloring.Coloring, paletteSize int, dist2 bool) Report {
	rep := Report{Valid: true}
	if len(c) != g.NumNodes() {
		rep.addViolation(Violation{Kind: "palette", U: -1, V: -1,
			Info: fmt.Sprintf("coloring has %d entries for %d nodes", len(c), g.NumNodes())})
		return rep
	}
	for u, col := range c {
		if col == coloring.Uncolored {
			rep.addViolation(Violation{Kind: "uncolored", U: graph.NodeID(u), V: -1, Info: "node has no color"})
			continue
		}
		if col < 0 || (paletteSize > 0 && col >= paletteSize) {
			rep.addViolation(Violation{Kind: "palette", U: graph.NodeID(u), V: -1,
				Info: fmt.Sprintf("color %d outside palette [0,%d)", col, paletteSize)})
		}
	}
	limit, maxColor := ch.prepare(c)
	ch.checkConflicts(g, c, dist2, &rep)
	ch.fillColorStats(c, limit, maxColor, &rep)
	if dist2 && rep.Valid {
		ch.cert = certificate{ok: true, g: g, palette: paletteSize, rep: rep}
	}
	return rep
}

// prepare sizes the per-color marks for c's color range and rebuilds the
// int32 color scratch, shared by the conflict scan and the color stats; the
// rebuild voids RecheckD2's certificate and counts. One
// fused pass: any color in [0, denseColorLimit) is below the final limit
// (limit = min(maxColor+1, denseColorLimit) and the color is ≤ maxColor), so
// the conversion can use the fixed cap while the same loop finds maxColor.
func (ch *Checker) prepare(c coloring.Coloring) (limit, maxColor int) {
	ch.cert.ok, ch.countsOK = false, false
	n := len(c)
	if cap(ch.colors) < n {
		ch.colors = make([]int32, n)
	} else {
		ch.colors = ch.colors[:n]
	}
	maxColor = -1
	for i, col := range c {
		if col > maxColor {
			maxColor = col
		}
		switch {
		case col == coloring.Uncolored:
			ch.colors[i] = -1
		case col >= 0 && col < denseColorLimit:
			ch.colors[i] = int32(col)
		default:
			ch.colors[i] = slowColor
		}
	}
	if maxColor >= 0 {
		limit = denseColorLimit
		if maxColor < denseColorLimit {
			limit = maxColor + 1
		}
	}
	if len(ch.marks) < limit {
		// Fresh marks are 0, which never equals a live generation.
		ch.marks = make([]uint16, limit)
	}
	return limit, maxColor
}

// slowSeen records color cx held by x in the out-of-range table and returns
// the previous holder, if any — the pooled slow path shared by the conflict
// scan and the color stats.
func (ch *Checker) slowSeen(cx int, x graph.NodeID) (graph.NodeID, bool) {
	if prev, ok := ch.slow[cx]; ok {
		return prev, true
	}
	ch.slow[cx] = x
	return 0, false
}

// checkConflicts finds colored node pairs at distance 1 (and, if dist2, also
// distance 2) sharing a color. prepare must have run for this coloring: the
// scan reads the cache-dense int32 scratch instead of the []int original.
func (ch *Checker) checkConflicts(g *graph.Graph, c coloring.Coloring, dist2 bool, rep *Report) {
	colors := ch.colors
	cancel := ch.cancel
	if !dist2 {
		for u := 0; u < g.NumNodes(); u++ {
			if cancel != nil && u%cancelStride == 0 && cancel() {
				rep.Canceled, rep.Valid = true, false
				return
			}
			cu := colors[u]
			if cu == -1 {
				continue
			}
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				// Two slow markers only match when the real colors do.
				if int(v) > u && colors[v] == cu && (cu != slowColor || c[v] == c[u]) {
					rep.addViolation(Violation{Kind: "conflict-d1", U: graph.NodeID(u), V: v,
						Info: fmt.Sprintf("both have color %d", c[u])})
				}
			}
		}
		return
	}
	if !ch.scanD2(g, c, func(prev, x, w graph.NodeID) {
		rep.addViolation(Violation{Kind: "conflict-d2", U: prev, V: x,
			Info: fmt.Sprintf("share color %d within the closed neighborhood of %d", c[x], w)})
	}) {
		rep.Canceled, rep.Valid = true, false
	}
}

// scanD2 is the distance-2 conflict scan shared by the Report checks and the
// conflict-node set. A d2-coloring is equivalent to: for every node w, all
// colored nodes in {w} ∪ N(w) have distinct colors. Checking that form costs
// O(n + m) CSR walks and — with the per-color generation marks — zero
// allocations per node, rather than materializing G². w itself is considered
// first (it seeds the fresh marks, never a duplicate), then its neighbors in
// CSR order — the walk order that defines which holder a duplicate names.
// dup is called for each colored neighbor x whose color an earlier member
// prev of w's closed neighborhood already holds. scanD2 returns false if the
// Checker's cancellation hook stopped the scan early. prepare must have run
// for this coloring.
func (ch *Checker) scanD2(g *graph.Graph, c coloring.Coloring, dup func(prev, x, w graph.NodeID)) bool {
	colors, cancel := ch.colors, ch.cancel
	for w := 0; w < g.NumNodes(); w++ {
		if cancel != nil && w%cancelStride == 0 && cancel() {
			return false
		}
		ch.resetMarks()
		ch.resetSlow()
		marks, gen := ch.marks, ch.gen
		nbrs := g.Neighbors(graph.NodeID(w))
		if cw := colors[w]; cw >= 0 {
			marks[cw] = gen
		} else if cw == slowColor {
			ch.slowSeen(c[w], graph.NodeID(w))
		}
		for i, x := range nbrs {
			cx := colors[x]
			if cx == -1 {
				continue
			}
			if cx >= 0 {
				if marks[cx] != gen {
					marks[cx] = gen
					continue
				}
				// Duplicate: recover the first holder by re-walking the
				// prefix (conflicts are the rare case; the holder is the
				// first matching node in walk order).
				if prev, ok := ch.firstHolder(graph.NodeID(w), nbrs[:i], cx); ok && prev != x {
					dup(prev, x, graph.NodeID(w))
				}
				continue
			}
			if prev, ok := ch.slowSeen(c[x], x); ok && prev != x {
				dup(prev, x, graph.NodeID(w))
			}
		}
	}
	return true
}

// firstHolder returns the first node in neighborhood walk order (w, then the
// given neighbor prefix) whose dense scratch color is cx.
func (ch *Checker) firstHolder(w graph.NodeID, prefix []graph.NodeID, cx int32) (graph.NodeID, bool) {
	if ch.colors[w] == cx {
		return w, true
	}
	for _, v := range prefix {
		if ch.colors[v] == cx {
			return v, true
		}
	}
	return 0, false
}

// fillColorStats computes ColorsUsed and MaxColor with a branch-free mark
// pass over a plain bitset row plus one popcount, instead of a per-call map;
// negative sentinels other than Uncolored count as distinct colors, matching
// Coloring.NumColorsUsed. prepare must have run for this coloring.
func (ch *Checker) fillColorStats(c coloring.Coloring, limit, maxColor int, rep *Report) {
	rep.MaxColor = maxColor
	words := bitset.WordsFor(limit)
	if cap(ch.statsRow) < words {
		ch.statsRow = make(bitset.Row, words)
	} else {
		ch.statsRow = ch.statsRow[:words]
		ch.statsRow.ClearAll()
	}
	ch.resetSlow()
	for i, col := range ch.colors {
		if col >= 0 {
			ch.statsRow.Set(int(col))
		} else if col == slowColor {
			ch.slowSeen(c[i], 0)
		}
	}
	rep.ColorsUsed = ch.statsRow.Count() + len(ch.slow)
}

func (r *Report) addViolation(v Violation) {
	r.Valid = false
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, v)
	}
}
