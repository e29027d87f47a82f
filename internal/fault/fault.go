// Package fault is the adversary of the robustness plane: a deterministic,
// seeded injector that corrupts colorings (targeted at high-degree or
// conflict-dense nodes as well as uniformly), drives edge/node churn scripts
// against a graph.Overlay, and supplies engine-pluggable message-drop and
// node-crash models (see loss.go).
//
// Determinism is the package's contract: every decision is drawn from one
// sequential SplitMix64 stream owned by the Injector (or, for the engine
// fault models, from a pure hash of (seed, round, slot/node)), so two
// injectors with the same seed and the same call sequence produce
// byte-identical victim sets, corrupt colors and churn scripts — which is
// what makes fault-injected experiments and their repair transcripts exactly
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

func (t Target) String() string {
	switch t {
	case TargetUniform:
		return "uniform"
	case TargetHighDegree:
		return "high-degree"
	case TargetConflictDense:
		return "conflict-dense"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// Injector is a deterministic fault source. Not safe for concurrent use.
type Injector struct {
	src *rng.Source
}

// NewInjector returns an injector whose entire behavior is a function of
// seed and the sequence of calls made on it.
func NewInjector(seed uint64) *Injector {
	return &Injector{src: rng.Split(seed, 0xFA017)}
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
	victims := in.pickVictims(g, c, k, target)
	slices.Sort(victims)
	var nbrColors []int
	seen := make(map[graph.NodeID]struct{})
	for _, v := range victims {
		nbrColors = appendDist2Colors(g, c, v, seen, nbrColors[:0])
		if len(nbrColors) > 0 {
			c[v] = nbrColors[in.src.Intn(len(nbrColors))]
		} else {
			c[v] = in.src.Intn(palette)
		}
	}
	return victims
}

// appendDist2Colors appends the colors of v's colored distance-2 neighbors
// to dst in graph.Dist2View.ForEachDist2 order — direct neighbors ascending,
// then two-hop neighbors in CSR walk order, each once. It deduplicates
// through seen (emptied first), whose size is the ball's, where a
// Dist2View would allocate a mark buffer the size of the graph.
func appendDist2Colors(g *graph.Graph, c coloring.Coloring, v graph.NodeID, seen map[graph.NodeID]struct{}, dst []int) []int {
	clear(seen)
	seen[v] = struct{}{}
	visit := func(w graph.NodeID) {
		if _, dup := seen[w]; dup {
			return
		}
		seen[w] = struct{}{}
		if c[w] != coloring.Uncolored {
			dst = append(dst, c[w])
		}
	}
	nbrs := g.Neighbors(v)
	for _, u := range nbrs {
		visit(u)
	}
	for _, u := range nbrs {
		for _, w := range g.Neighbors(u) {
			visit(w)
		}
	}
	return dst
}

// pickVictims selects k distinct colored nodes per target.
func (in *Injector) pickVictims(g *graph.Graph, c coloring.Coloring, k int, target Target) []graph.NodeID {
	var uncolored []graph.NodeID
	for v, col := range c {
		if col == coloring.Uncolored {
			uncolored = append(uncolored, graph.NodeID(v))
		}
	}
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
		picked := make(map[graph.NodeID]struct{}, k)
		out := make([]graph.NodeID, 0, k)
		for len(out) < k {
			i := in.src.Intn(numColored)
			v := graph.NodeID(i + sort.Search(len(uncolored), func(j int) bool { return int(uncolored[j])-j > i }))
			if _, dup := picked[v]; !dup {
				picked[v] = struct{}{}
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
