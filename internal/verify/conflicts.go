package verify

import (
	"fmt"
	"slices"

	"d2color/internal/bitset"
	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// This file is the repair-seeding side of the oracle: where the Report path
// counts violations (capped at maxViolations, because a human reads it), the
// conflict-set path enumerates every node involved in at least one distance-2
// color conflict — exactly the dirty set an incremental repair pass needs.
// Both run the same scan (scanD2); the node-set side adds a per-node bitset,
// allocated on the first conflict-set call, so warmed count-only Checkers
// stay 0 allocs/op.

// ConflictNodesD2 returns every node of g involved in a distance-2 color
// conflict under c, sorted ascending. Uncolored nodes are not conflicts
// (mirror CheckPartialD2); use the Report checks for completeness.
func ConflictNodesD2(g *graph.Graph, c coloring.Coloring) []graph.NodeID {
	ch := checkerPool.Get().(*Checker)
	defer release(ch)
	return ch.AppendConflictNodesD2(g, c, nil)
}

// AppendConflictNodesD2 appends every node involved in at least one
// distance-2 color conflict to dst and returns the extended slice; the
// appended suffix is sorted ascending and duplicate-free. Unlike the Report
// checks it never caps: a mass corruption reports every victim, which is what
// seeds repair. It panics if c and g disagree on the node count.
func (ch *Checker) AppendConflictNodesD2(g *graph.Graph, c coloring.Coloring, dst []graph.NodeID) []graph.NodeID {
	return appendConflictNodes(ch, g, c, dst)
}

// AppendConflictNodesD2Packed is AppendConflictNodesD2 over a bit-packed
// coloring, without unpacking it.
func (ch *Checker) AppendConflictNodesD2Packed(g *graph.Graph, c *coloring.Packed, dst []graph.NodeID) []graph.NodeID {
	return appendConflictNodes(ch, g, c, dst)
}

// appendConflictNodes runs scanD2 and marks both endpoints of every
// duplicate into a per-node bitset instead of building (capped) Violations.
func appendConflictNodes[C colorView](ch *Checker, g *graph.Graph, c C, dst []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	if c.Len() != n {
		panic(fmt.Sprintf("verify: coloring has %d entries for %d nodes", c.Len(), n))
	}
	prepare(ch, c)
	words := bitset.WordsFor(n)
	if cap(ch.nodeSeen) < words {
		ch.nodeSeen = make(bitset.Row, words)
	} else {
		ch.nodeSeen = ch.nodeSeen[:words]
		ch.nodeSeen.ClearAll()
	}
	start := len(dst)
	// The slice has no Canceled flag, so a canceled scan simply returns the
	// conflicts found so far — callers that install a hook re-check it
	// themselves before acting on the (possibly partial) dirty set.
	scanD2(ch, g, c, func(prev, x, _ graph.NodeID) {
		for _, v := range [2]graph.NodeID{prev, x} {
			if !ch.nodeSeen.Test(int(v)) {
				ch.nodeSeen.Set(int(v))
				dst = append(dst, v)
			}
		}
	})
	slices.Sort(dst[start:])
	return dst
}
