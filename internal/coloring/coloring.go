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

// Palette tracks which colors of [0, size) are still available to one node.
// It supports the "try a random available color" primitive used throughout
// the algorithms.
type Palette struct {
	size  int
	used  []bool
	nUsed int
}

// NewPalette returns a palette over colors {0, ..., size-1} with nothing
// marked used.
func NewPalette(size int) *Palette {
	if size < 0 {
		size = 0
	}
	return &Palette{size: size, used: make([]bool, size)}
}

// Size returns the total palette size.
func (p *Palette) Size() int { return p.size }

// MarkUsed marks a color as unavailable. Colors outside the palette are
// ignored (they cannot conflict with palette choices).
func (p *Palette) MarkUsed(color int) {
	if color < 0 || color >= p.size {
		return
	}
	if !p.used[color] {
		p.used[color] = true
		p.nUsed++
	}
}

// IsAvailable reports whether a color is inside the palette and not used.
func (p *Palette) IsAvailable(color int) bool {
	return color >= 0 && color < p.size && !p.used[color]
}

// NumAvailable returns the number of available colors.
func (p *Palette) NumAvailable() int { return p.size - p.nUsed }

// Available returns the sorted list of available colors in a fresh slice.
// Hot paths should use AppendAvailable with a reused buffer instead.
func (p *Palette) Available() []int {
	return p.AppendAvailable(make([]int, 0, p.NumAvailable()))
}

// AppendAvailable appends the sorted available colors to dst and returns the
// extended slice. It only allocates when dst lacks capacity.
func (p *Palette) AppendAvailable(dst []int) []int {
	for c := 0; c < p.size; c++ {
		if !p.used[c] {
			dst = append(dst, c)
		}
	}
	return dst
}

// NthAvailable returns the i-th (0-based) available color, or -1 if fewer
// than i+1 colors are available. Used to pick a uniform random available
// color by drawing i uniformly from [0, NumAvailable()).
func (p *Palette) NthAvailable(i int) int {
	if i < 0 {
		return -1
	}
	for c := 0; c < p.size; c++ {
		if !p.used[c] {
			if i == 0 {
				return c
			}
			i--
		}
	}
	return -1
}
