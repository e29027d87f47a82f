package randd2

import (
	"fmt"
	"math"

	"d2color/internal/bitset"
	"d2color/internal/graph"
)

// PaletteStats reports what LearnPalette observed, for experiment E7.
type PaletteStats struct {
	LiveNodes     int
	MaxMissing    int // max over live nodes of |Tv|, the colours learned only via the correction step (Lemma 2.15: O(log n))
	MaxLivePerNbr int // max number of live d2-neighbours of any node (the precondition bound ϕ)
	ChargedRounds int
}

// remainingPalettes is LearnPalette's output: one palette bitset row per
// live node (set bit = colour still available), carved out of a single flat
// backing slice. FinishColoring mutates the rows in place as colours get
// claimed; len is a popcount, the i-th smallest remaining colour a word
// scan.
type remainingPalettes struct {
	words []uint64
	w     int     // words per row
	row   []int32 // node -> row offset in words, -1 for non-live nodes
}

// has reports whether v owns a remaining-palette row.
func (p *remainingPalettes) has(v graph.NodeID) bool { return p.row[v] >= 0 }

// palette returns v's row (caller must check has first).
func (p *remainingPalettes) palette(v graph.NodeID) bitset.Row {
	base := int(p.row[v])
	return bitset.Row(p.words[base : base+p.w])
}

// learnPalette implements Algorithm LearnPalette of Section 2.6.
//
// Outcome: every live node knows its remaining palette — the set of colours
// in [Δ²+1] not used by any of its d2-neighbours. In the protocol this
// knowledge is assembled by handler nodes (one per block of ~Δ colours per
// live node) that colored nodes reach through random 2-paths; the colours a
// live node fails to learn that way (the set Tv) are recovered exactly in the
// final correction step through its immediate neighbours (step 7). We compute
// both quantities: the exact remaining palette (the protocol's guaranteed
// output) and |Tv| — here the colours of d2-neighbours that are not
// H-neighbours of v, the quantity Lemma 2.15 bounds by O(log n) — which the
// harness reports.
//
// The colour sets are palette bitsets: the two observation sets are marked
// bit by bit, |Tv| is popcount(usedAll &^ usedViaH), and the remaining
// palette is the complement of usedAll — word operations over Δ²/64 words
// instead of the former two fresh bool-slices per live node.
//
// Round charge (Theorem 2.16 with Z = Δ and P = Δ·sqrt(Δ·log n)):
// O(ϕ) for the floodings of steps 1–2 plus O(log n) for steps 3–7, which is
// O(log n) when Δ = Ω(log n). We charge ϕ + 4·log₂ n.
func (r *runner) learnPalette() (remaining *remainingPalettes, stats PaletteStats) {
	live := r.live
	stats.LiveNodes = len(live)
	w := bitset.WordsFor(r.palette)
	remaining = &remainingPalettes{
		words: make([]uint64, len(live)*w),
		w:     w,
		row:   make([]int32, r.n),
	}
	for v := range remaining.row {
		remaining.row[v] = -1
	}

	// Precondition quantity ϕ: live d2-neighbours per node. u ∈ N²(v) iff
	// v ∈ N²(u), so it is counted from the live side, in the same walk that
	// collects the palettes, and never streams a non-live node.
	livePerNbr := make([]int32, r.n)
	usedAll := bitset.NewFixed(r.palette)  // colours of all colored d2-neighbours
	usedViaH := bitset.NewFixed(r.palette) // colours the handlers learn (from H-neighbours)
	for li, v := range live {
		usedAll.ClearAll()
		usedViaH.ClearAll()
		for _, u := range r.d2.Neighbors(v) {
			livePerNbr[u]++
			c := r.col[u]
			if c < 0 || c >= r.palette {
				continue
			}
			usedAll.Set(c)
			if r.sim.isHNeighbor(v, u) {
				usedViaH.Set(c)
			}
		}
		// Tv: colours v did not learn through the handler mechanism and must
		// recover via the correction step — exactly the colours used only by
		// non-H d2-neighbours (proof of Lemma 2.15).
		if missing := usedAll.Row().AndNotCount(usedViaH.Row()); missing > stats.MaxMissing {
			stats.MaxMissing = missing
		}
		// The protocol's guaranteed output: the exact remaining palette — the
		// complement of usedAll inside [0, palette).
		remaining.row[v] = int32(li * w)
		rem := remaining.palette(v)
		for wi, word := range usedAll.Row() {
			rem[wi] = ^word
		}
		if extra := uint(w*64 - r.palette); extra > 0 {
			rem[w-1] &= ^uint64(0) >> extra // mask the bits beyond the palette
		}
	}

	for _, c := range livePerNbr {
		stats.MaxLivePerNbr = max(stats.MaxLivePerNbr, int(c))
	}
	stats.ChargedRounds = stats.MaxLivePerNbr + int(math.Ceil(4*log2(r.n)))
	r.charge(stats.ChargedRounds)
	return remaining, stats
}

// FinishStats reports the FinishColoring run for experiment E7.
type FinishStats struct {
	Phases        int
	ChargedRounds int
}

// finishColoring implements Algorithm FinishColoring of Section 2.6: every
// live node repeatedly flips a fair coin to be quiet or to try a uniformly
// random colour from its known remaining palette; successful nodes notify
// their d2-neighbourhood, which removes the colour from the neighbours'
// remaining palettes. Lemma 2.14: completes in O(log n) phases w.h.p.
//
// The per-node palettes are the bitset rows LearnPalette built: the draw is
// a popcount plus an NthSet word scan (the i-th smallest remaining colour,
// matching the former sorted-set pick bit for bit), and a notification is
// a one-word Clear.
//
// Round charge: 3 rounds per phase — the two rounds of the try plus one
// amortized round for forwarding colour notifications two hops (the Busy
// mechanism of Section 2.6 bounds the total backlog by the number of live
// d2-neighbours, which the O(log n) phase bound already absorbs).
func (r *runner) finishColoring(remaining *remainingPalettes) (FinishStats, error) {
	var stats FinishStats
	// FinishColoring completes in O(log n) phases w.h.p. (Lemma 2.14); the
	// bound is dozens of times that.
	maxPhases := 64*int(math.Ceil(log2(r.n))) + 256

	for phase := 0; phase < maxPhases && r.liveLeft > 0; phase++ {
		stats.Phases++
		r.beginTries()
		for _, v := range r.live {
			if !remaining.has(v) {
				continue
			}
			avail := remaining.palette(v)
			size := avail.Count()
			if size == 0 {
				// Cannot happen for a correct remaining palette (it always
				// contains at least live-degree+1 colours); guard anyway.
				continue
			}
			// Fair coin: quiet or try (Section 2.6).
			if !r.rand[v].Bool() {
				continue
			}
			pick := r.rand[v].Intn(size)
			r.setTry(v, avail.NthSet(pick))
		}
		colored := r.resolveTries()
		for _, v := range colored {
			c := r.col[v]
			r.d2.ForEachDist2(v, func(u graph.NodeID) bool {
				if remaining.has(u) {
					remaining.palette(u).Clear(c)
				}
				return true
			})
		}
		r.charge(3)
		stats.ChargedRounds += 3
	}
	if r.liveLeft > 0 {
		return stats, fmt.Errorf("randd2: FinishColoring left %d live nodes after %d phases", r.liveLeft, stats.Phases)
	}
	return stats, nil
}
