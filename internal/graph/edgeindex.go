package graph

import "sort"

// EdgeIndex is a CSR (compressed sparse row) view of a graph's directed edge
// slots. Every undirected edge {u, v} contributes two directed slots, (u→v)
// and (v→u); a slot is a stable dense integer that identifies the directed
// edge for the lifetime of the graph. The CONGEST simulator keys its
// preallocated per-edge message buffers and bandwidth accounting by slot, so
// the per-round hot path never consults a map.
//
// The index is built lazily, once per graph (see Graph.EdgeIndex), and is
// immutable afterwards.
type EdgeIndex struct {
	// Offsets has length NumNodes()+1; the out-slots of node u are
	// Offsets[u] .. Offsets[u+1]-1, in ascending order of target.
	Offsets []int32
	// Targets[e] is the head of directed edge slot e. Within one source node
	// the targets appear in the graph's (sorted) neighbor order, so the i-th
	// neighbor of u owns slot Offsets[u]+i.
	Targets []NodeID
	// Rev[e] is the slot of the reverse directed edge: if slot e is (u→v),
	// Rev[e] is (v→u). Rev is an involution: Rev[Rev[e]] == e.
	Rev []int32
}

// maxEdgeSlots bounds the directed slot count so slots fit in int32. 2^31-1
// slots of message buffers is far beyond what the simulator can hold in
// memory anyway.
const maxEdgeSlots = 1<<31 - 1

// EdgeIndex returns the CSR edge index of g, building it on first use. The
// returned index is shared and must not be modified. Safe for concurrent use.
func (g *Graph) EdgeIndex() *EdgeIndex {
	g.ixOnce.Do(func() { g.ix = buildEdgeIndex(g) })
	return g.ix
}

func buildEdgeIndex(g *Graph) *EdgeIndex {
	// The graph is already CSR-native, so the index aliases the graph's
	// (immutable) offset and target arrays and only computes Rev.
	ix := &EdgeIndex{
		Offsets: g.off,
		Targets: g.tgt,
		Rev:     make([]int32, len(g.tgt)),
	}
	for u := 0; u < g.n; u++ {
		base := ix.Offsets[u]
		for i, v := range g.Neighbors(NodeID(u)) {
			// The reverse slot is u's position in v's sorted neighbor list.
			lst := g.Neighbors(v)
			j := sort.Search(len(lst), func(k int) bool { return lst[k] >= NodeID(u) })
			ix.Rev[base+int32(i)] = ix.Offsets[v] + int32(j)
		}
	}
	return ix
}

// NumSlots returns the number of directed edge slots (2m).
func (ix *EdgeIndex) NumSlots() int { return len(ix.Targets) }

// Slot returns the slot of the directed edge (u→v) and whether it exists.
// Runs in O(log deg(u)).
func (ix *EdgeIndex) Slot(u, v NodeID) (int32, bool) {
	if int(u) < 0 || int(u) >= len(ix.Offsets)-1 {
		return -1, false
	}
	lo, hi := ix.Offsets[u], ix.Offsets[u+1]
	t := ix.Targets[lo:hi]
	j := sort.Search(len(t), func(k int) bool { return t[k] >= v })
	if j < len(t) && t[j] == v {
		return lo + int32(j), true
	}
	return -1, false
}
