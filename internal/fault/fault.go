// Package fault is the adversary of the robustness plane: a deterministic,
// seeded injector that corrupts colorings (targeted at high-degree or
// conflict-dense nodes as well as uniformly) and drives edge/node churn
// scripts against a graph.Overlay. Its faults are transient state
// corruption between runs — the sense of self-stabilization that
// internal/repair heals; the CONGEST engine itself runs fault-free, as the
// paper's model does.
//
// Determinism is the package's contract: every decision is drawn from one
// sequential SplitMix64 stream owned by the Injector, so two injectors with
// the same seed and the same call sequence produce byte-identical victim
// sets, corrupt colors and churn scripts — which is what makes
// fault-injected experiments and their repair transcripts exactly
// reproducible.
package fault

import (
	"fmt"
	"slices"
	"sort"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
)

// Target selects how CorruptColors picks its victims.
type Target int

const (
	// TargetUniform corrupts uniformly random colored nodes.
	TargetUniform Target = iota
	// TargetHighDegree corrupts the highest-degree colored nodes (ties by
	// ascending ID) — the hubs whose distance-2 balls are largest, so repair
	// pays its worst locality.
	TargetHighDegree
	// TargetConflictDense corrupts the nodes with the largest distance-2
	// degree (ties by ascending ID): the densest conflict neighborhoods,
	// where a duplicated color collides with the most constraints.
	TargetConflictDense
)

// Injector is a deterministic fault source. Not safe for concurrent use.
// It keeps CorruptKnown's scratch across calls, so an injector reused through
// Reseed corrupts a coloring without allocating beyond the victims it returns.
type Injector struct {
	src       *rng.Source
	nbrColors []int   // colors of one victim's colored distance-2 neighbors
	seen      nodeSet // deduplicates one victim's distance-2 ball
	picked    nodeSet // uniform victims drawn so far
}

// injectorStream is the Split index of every injector's stream.
const injectorStream = 0xFA017

// NewInjector returns an injector whose entire behavior is a function of
// seed and the sequence of calls made on it.
func NewInjector(seed uint64) *Injector {
	return &Injector{src: rng.Split(seed, injectorStream)}
}

// Reseed rewinds in to the stream NewInjector(seed) starts, keeping its
// scratch: every later call returns what it would on NewInjector(seed).
func (in *Injector) Reseed(seed uint64) {
	in.src.ResetSplit(seed, injectorStream)
}

// insertAttemptSlack bounds rejection sampling in the churn helpers: after
// 20 tries per requested event plus a flat floor, the injector gives up on
// the remainder (a nearly-complete graph simply has no room for more edges).
const insertAttemptSlack = 20

// CorruptColors adversarially corrupts the colors of k victims of c in
// place. A victim's new color duplicates a uniformly chosen colored
// distance-2 neighbor's color — a guaranteed conflict — falling back to a
// uniform color from [0, palette) for victims with no colored d2 neighbor.
// Victims are distinct colored nodes selected per target; fewer than k
// colored nodes means every one is hit. The sorted victim set is returned —
// exactly the dirty set a repair pass should be seeded with.
func (in *Injector) CorruptColors(g *graph.Graph, c coloring.Coloring, k int, target Target, palette int) []graph.NodeID {
	var uncolored []graph.NodeID
	for v, col := range c {
		if col == coloring.Uncolored {
			uncolored = append(uncolored, graph.NodeID(v))
		}
	}
	return in.CorruptKnown(g, c, k, target, palette, uncolored)
}

// CorruptKnown is CorruptColors for a caller that already knows c's
// uncolored nodes: uncolored must list exactly them, ascending (nil for a
// complete coloring). Given that, it draws the same victims and colors as
// CorruptColors, and the uniform draw makes no pass over c — a served
// churn epoch pays for its victims' balls, not for n.
func (in *Injector) CorruptKnown(g *graph.Graph, c coloring.Coloring, k int, target Target, palette int, uncolored []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	if len(c) != n {
		panic(fmt.Sprintf("fault: coloring has %d entries for %d nodes", len(c), n))
	}
	if palette <= 0 {
		palette = 1
		for _, col := range c {
			if col >= palette {
				palette = col + 1
			}
		}
	}
	victims := in.pickVictims(g, c, k, target, uncolored)
	slices.Sort(victims)
	for _, v := range victims {
		nbrColors := in.dist2Colors(g, c, v)
		if len(nbrColors) > 0 {
			c[v] = nbrColors[in.src.Intn(len(nbrColors))]
		} else {
			c[v] = in.src.Intn(palette)
		}
	}
	return victims
}

// dist2Colors returns the colors of v's colored distance-2 neighbors in
// graph.Dist2View.ForEachDist2 order — direct neighbors ascending, then
// two-hop neighbors in CSR walk order, each once — in the injector's reused
// nbrColors buffer. It deduplicates through in.seen, reset to v's ball size,
// where a Dist2View would allocate a mark buffer the size of the graph.
func (in *Injector) dist2Colors(g *graph.Graph, c coloring.Coloring, v graph.NodeID) []int {
	nbrs := g.Neighbors(v)
	ball := 1 + len(nbrs)
	for _, u := range nbrs {
		ball += g.Degree(u)
	}
	in.seen.reset(ball)
	in.seen.add(v)
	dst := in.nbrColors[:0]
	for _, u := range nbrs {
		if in.seen.add(u) && c[u] != coloring.Uncolored {
			dst = append(dst, c[u])
		}
	}
	for _, u := range nbrs {
		for _, w := range g.Neighbors(u) {
			if in.seen.add(w) && c[w] != coloring.Uncolored {
				dst = append(dst, c[w])
			}
		}
	}
	in.nbrColors = dst
	return dst
}

// nodeSet is an open-addressing set of node IDs sized to one distance-2
// ball (or one uniform victim draw) and reused across them, so deduplicating
// allocates nothing once the set has grown to the largest size seen. A slot
// holds v+1; 0 marks it empty.
type nodeSet struct {
	slots []int32
	shift uint // 64 - log2(len(slots)): the multiplicative hash keeps the top bits
}

// reset empties the set and sizes it for up to size members at load ≤ 1/2.
func (s *nodeSet) reset(size int) {
	slots, shift := 16, uint(60)
	for slots < 2*size {
		slots <<= 1
		shift--
	}
	if cap(s.slots) < slots {
		s.slots = make([]int32, slots)
	} else {
		s.slots = s.slots[:slots]
		clear(s.slots)
	}
	s.shift = shift
}

// add inserts v and reports whether it was absent.
func (s *nodeSet) add(v graph.NodeID) bool {
	mask := uint64(len(s.slots) - 1)
	key := int32(v) + 1
	for i := uint64(v) * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}

// pickVictims selects k distinct colored nodes per target; uncolored lists
// c's uncolored nodes, ascending.
func (in *Injector) pickVictims(g *graph.Graph, c coloring.Coloring, k int, target Target, uncolored []graph.NodeID) []graph.NodeID {
	numColored := len(c) - len(uncolored)
	if k >= numColored {
		return coloredNodes(c, numColored)
	}
	switch target {
	case TargetHighDegree:
		colored := coloredNodes(c, numColored)
		sort.SliceStable(colored, func(i, j int) bool {
			di, dj := g.Degree(colored[i]), g.Degree(colored[j])
			if di != dj {
				return di > dj
			}
			return colored[i] < colored[j]
		})
		return slices.Clone(colored[:k])
	case TargetConflictDense:
		colored := coloredNodes(c, numColored)
		view := graph.NewDist2View(g)
		d2 := make([]int, len(colored))
		for i, v := range colored {
			d2[i] = view.Dist2Degree(v)
		}
		idx := make([]int, len(colored))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if d2[idx[a]] != d2[idx[b]] {
				return d2[idx[a]] > d2[idx[b]]
			}
			return colored[idx[a]] < colored[idx[b]]
		})
		out := make([]graph.NodeID, k)
		for i := 0; i < k; i++ {
			out[i] = colored[idx[i]]
		}
		return out
	default: // TargetUniform: rejection-sample distinct colored nodes
		// Draw i names the i-th colored node, found by binary search over
		// the uncolored list U instead of an n-sized list of the colored
		// ones: with j uncolored nodes before it, it is node i + j, where j
		// is the first index with U[j] - j > i (U[j] - j is nondecreasing).
		in.picked.reset(k)
		out := make([]graph.NodeID, 0, k)
		for len(out) < k {
			i := in.src.Intn(numColored)
			v := graph.NodeID(i + sort.Search(len(uncolored), func(j int) bool { return int(uncolored[j])-j > i }))
			if in.picked.add(v) {
				out = append(out, v)
			}
		}
		return out
	}
}

// coloredNodes returns the numColored colored nodes of c, ascending.
func coloredNodes(c coloring.Coloring, numColored int) []graph.NodeID {
	colored := make([]graph.NodeID, 0, numColored)
	for v, col := range c {
		if col != coloring.Uncolored {
			colored = append(colored, graph.NodeID(v))
		}
	}
	return colored
}

// InsertRandomEdges inserts up to count random new edges between distinct
// live non-adjacent nodes of o, applying them to the overlay, and returns
// the inserted edges (normalized). On dense or tiny graphs fewer edges may
// be found within the bounded attempt budget.
func (in *Injector) InsertRandomEdges(o *graph.Overlay, count int) []graph.Edge {
	n := o.NumNodes()
	if n < 2 || count <= 0 {
		return nil
	}
	out := make([]graph.Edge, 0, count)
	for attempts := insertAttemptSlack*count + 100; attempts > 0 && len(out) < count; attempts-- {
		u, v := graph.NodeID(in.src.Intn(n)), graph.NodeID(in.src.Intn(n))
		if u == v || !o.Alive(u) || !o.Alive(v) || o.HasEdge(u, v) {
			continue
		}
		if err := o.AddEdge(u, v); err != nil {
			panic(err) // unreachable: endpoints validated above
		}
		out = append(out, graph.Edge{U: u, V: v}.Normalize())
	}
	return out
}

// DeleteRandomEdges deletes up to count random live edges of o, applying the
// deletions, and returns the removed edges (normalized). Endpoint-biased
// sampling (uniform node, then uniform incident edge) keeps each draw O(deg)
// without materializing the edge list; churn scripts do not need exact
// edge-uniformity.
func (in *Injector) DeleteRandomEdges(o *graph.Overlay, count int) []graph.Edge {
	n := o.NumNodes()
	if n == 0 || count <= 0 || o.NumEdges() == 0 {
		return nil
	}
	out := make([]graph.Edge, 0, count)
	for attempts := insertAttemptSlack*count + 100; attempts > 0 && len(out) < count; attempts-- {
		if o.NumEdges() == 0 {
			break
		}
		u := graph.NodeID(in.src.Intn(n))
		deg := o.Degree(u)
		if deg == 0 {
			continue
		}
		j := in.src.Intn(deg)
		var v graph.NodeID = -1
		o.ForEachNeighbor(u, func(w graph.NodeID) bool {
			if j == 0 {
				v = w
				return false
			}
			j--
			return true
		})
		if v < 0 || !o.RemoveEdge(u, v) {
			continue
		}
		out = append(out, graph.Edge{U: u, V: v}.Normalize())
	}
	return out
}

// AddWiredNode appends one node to o and wires it to up to wire random
// distinct live nodes, returning the new node's ID and its edges.
func (in *Injector) AddWiredNode(o *graph.Overlay, wire int) (graph.NodeID, []graph.Edge) {
	v := o.AddNodes(1)
	if wire <= 0 || o.NumLiveNodes() < 2 {
		return v, nil
	}
	out := make([]graph.Edge, 0, wire)
	for attempts := insertAttemptSlack*wire + 100; attempts > 0 && len(out) < wire; attempts-- {
		u := graph.NodeID(in.src.Intn(o.NumNodes()))
		if u == v || !o.Alive(u) || o.HasEdge(u, v) {
			continue
		}
		if err := o.AddEdge(u, v); err != nil {
			panic(err)
		}
		out = append(out, graph.Edge{U: u, V: v}.Normalize())
	}
	return v, out
}

// RemoveRandomNode tombstones a uniformly random live node of o, returning
// it with its former neighbors (the nodes whose constraints changed — dirty
// seeds for repair). ok is false when no live node was found.
func (in *Injector) RemoveRandomNode(o *graph.Overlay) (v graph.NodeID, nbrs []graph.NodeID, ok bool) {
	n := o.NumNodes()
	if o.NumLiveNodes() == 0 {
		return -1, nil, false
	}
	for attempts := insertAttemptSlack + 100; attempts > 0; attempts-- {
		cand := graph.NodeID(in.src.Intn(n))
		if !o.Alive(cand) {
			continue
		}
		nbrs = o.AppendNeighbors(nil, cand)
		o.RemoveNode(cand)
		return cand, nbrs, true
	}
	return -1, nil, false
}
