package verify

import (
	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// This file is the certified incremental side of the oracle. A distance-2
// conflict is a pair of nodes at most two hops apart, so if a coloring was
// valid, a change at node v can only create conflicts between v and N²(v).
// A Checker that has just certified a coloring valid therefore only has to
// re-examine the distance-2 neighborhoods of the nodes whose colors changed
// since — the same locality argument the trial primitive and the
// ball-confined repair rest on.

// certificate is the verdict of the Checker's last valid distance-2 pass:
// the coloring it certified is the Checker's own int32 copy (colors), the
// graph and palette are the pass's arguments, and rep is its Report. Every
// pass that rewrites the int32 copy clears ok first (see prepare); a valid
// CheckD2 or RecheckD2 sets it again.
type certificate struct {
	ok      bool
	g       *graph.Graph
	palette int
	rep     Report
}

// RecheckD2 is CheckD2 for a coloring that changed only a little since this
// Checker's last pass. If touched is a superset of every node whose color
// changed since that pass over g, it returns a Report deep-equal to
// CheckD2(g, c, paletteSize); touched may hold duplicates and unchanged
// nodes.
//
// It rechecks only the pairs (t, u) with t ∈ touched and u ∈ N²(t), and
// keeps ColorsUsed and MaxColor from per-color use counts. It runs (and
// returns) the full CheckD2 instead when there is no earlier valid pass for
// this g, coloring length and palette; when a touched node is out of range,
// uncolored, outside the palette or at or above the count table's bound;
// when any conflict is found (so invalid reports keep the full scan's exact
// Violations order); and when the walk passes n + 2m adjacency entries — a
// full scan's worth — so a recheck that gives up costs at most about twice
// a full scan. An empty touched list returns the last valid report in O(1).
//
// The count table has one int32 per color below min(n, paletteSize); it is
// built on the first non-empty recheck after a full pass, and only if the
// certified MaxColor is below that bound — otherwise every non-empty
// recheck is a full check. A warmed recheck allocates nothing.
func (ch *Checker) RecheckD2(g *graph.Graph, c coloring.Coloring, paletteSize int, touched []graph.NodeID) Report {
	n := g.NumNodes()
	cert := &ch.cert
	if !cert.ok || cert.g != g || cert.palette != paletteSize || len(c) != n {
		return ch.CheckD2(g, c, paletteSize)
	}
	if len(touched) == 0 {
		return cert.rep
	}
	if !ch.countsOK && !ch.buildCounts(n, paletteSize) {
		return ch.CheckD2(g, c, paletteSize)
	}
	// Move the certified copy and the counts to the new coloring. The
	// certificate is void until the walk below re-establishes it, so a
	// fallback or a panic in between leaves the next call a full check (the
	// full pass also rebuilds the copy and voids the counts).
	cert.ok = false
	colors, counts := ch.colors, ch.counts
	used, maxColor := cert.rep.ColorsUsed, int32(cert.rep.MaxColor)
	for _, t := range touched {
		// Every color the table covers is in the palette and in the dense
		// range, so one unsigned compare rejects uncolored, negative,
		// out-of-palette and oversized colors alike.
		if uint(t) >= uint(n) || uint(c[t]) >= uint(len(counts)) {
			return ch.CheckD2(g, c, paletteSize)
		}
		col, old := int32(c[t]), colors[t]
		if col == old {
			continue
		}
		colors[t] = col
		if counts[old]--; counts[old] == 0 {
			used--
		}
		if counts[col]++; counts[col] == 1 {
			used++
		}
		maxColor = max(maxColor, col)
	}
	for maxColor > 0 && counts[maxColor] == 0 {
		maxColor--
	}

	budget := n + 2*g.NumEdges()
	for _, t := range touched {
		ct := colors[t]
		nbrs := g.Neighbors(t)
		if budget -= len(nbrs); budget < 0 {
			return ch.CheckD2(g, c, paletteSize)
		}
		for _, u := range nbrs {
			if colors[u] == ct {
				return ch.CheckD2(g, c, paletteSize)
			}
			second := g.Neighbors(u)
			if budget -= len(second); budget < 0 {
				return ch.CheckD2(g, c, paletteSize)
			}
			for _, w := range second {
				if colors[w] == ct && w != t {
					return ch.CheckD2(g, c, paletteSize)
				}
			}
		}
	}
	cert.rep = Report{Valid: true, ColorsUsed: used, MaxColor: int(maxColor)}
	cert.ok = true
	return cert.rep
}

// buildCounts fills the per-color use counts from the certified copy, over
// colors [0, min(n, paletteSize, denseColorLimit)). It reports false,
// leaving the table unbuilt, when the certified MaxColor does not fit.
func (ch *Checker) buildCounts(n, paletteSize int) bool {
	limit := min(n, denseColorLimit)
	if paletteSize > 0 {
		limit = min(limit, paletteSize)
	}
	if ch.cert.rep.MaxColor >= limit {
		return false
	}
	if cap(ch.counts) < limit {
		ch.counts = make([]int32, limit)
	} else {
		ch.counts = ch.counts[:limit]
		clear(ch.counts)
	}
	for _, col := range ch.colors {
		ch.counts[col]++
	}
	ch.countsOK = true
	return true
}
