// Package coloring defines the color assignment produced by every algorithm
// in this repository, together with palette bookkeeping helpers shared by the
// algorithm implementations.
//
// Colors are integers >= 0. The sentinel Uncolored marks nodes that have not
// yet committed to a color; a completed run never contains it.
package coloring

import (
	"fmt"

	"d2color/internal/graph"
)

// Uncolored is the sentinel value for a node that has not yet been assigned a
// color.
const Uncolored = -1

// Coloring maps each node (by dense node ID) to its color.
type Coloring []int

// New returns a coloring of n nodes with every node uncolored.
func New(n int) Coloring {
	c := make(Coloring, n)
	for i := range c {
		c[i] = Uncolored
	}
	return c
}

// Clone returns a deep copy of the coloring.
func (c Coloring) Clone() Coloring {
	out := make(Coloring, len(c))
	copy(out, c)
	return out
}

// IsColored reports whether node v has been assigned a color.
func (c Coloring) IsColored(v graph.NodeID) bool { return c[v] != Uncolored }

// Complete reports whether every node has a color.
func (c Coloring) Complete() bool {
	for _, col := range c {
		if col == Uncolored {
			return false
		}
	}
	return true
}

// NumColored returns the number of nodes that have a color.
func (c Coloring) NumColored() int {
	count := 0
	for _, col := range c {
		if col != Uncolored {
			count++
		}
	}
	return count
}

// NumColorsUsed returns the number of distinct colors used by colored nodes.
func (c Coloring) NumColorsUsed() int {
	seen := make(map[int]struct{})
	for _, col := range c {
		if col != Uncolored {
			seen[col] = struct{}{}
		}
	}
	return len(seen)
}

// MaxColor returns the largest color value used, or -1 if nothing is colored.
func (c Coloring) MaxColor() int {
	maxCol := -1
	for _, col := range c {
		if col != Uncolored && col > maxCol {
			maxCol = col
		}
	}
	return maxCol
}

// String summarizes the coloring.
func (c Coloring) String() string {
	return fmt.Sprintf("Coloring(nodes=%d, colored=%d, colors=%d, max=%d)",
		len(c), c.NumColored(), c.NumColorsUsed(), c.MaxColor())
}
