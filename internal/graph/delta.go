package graph

import (
	"fmt"
	"slices"
)

// This file implements the mutation plane of the substrate: a Graph stays an
// immutable CSR, and churn (edge/node insert and delete) accumulates in an
// Overlay — a delta layer over a base CSR that answers the same neighborhood
// queries the static plane does, without ever rebuilding the CSR per
// mutation. Compact folds the accumulated deltas back into a fresh CSR, on
// which the static kernels (Dist2View, repair, verify) run.

// Overlay is a mutable delta layer over an immutable base Graph. It supports
// edge insert/delete, appending new nodes, and removing nodes, while serving
// merged adjacency queries over base+delta:
//
//   - per-node added and deleted neighbor lists are kept sorted, so
//     ForEachNeighbor is a sorted three-way merge (base minus deleted, plus
//     added) and iteration order matches what a rebuilt CSR would produce;
//   - removed nodes are tombstoned and filtered from every stream.
//
// An Overlay is NOT safe for concurrent use. Mutation cost is O(deg) per
// edge op (sorted-slice insert); query cost matches the static plane
// asymptotically. When churn has settled, Compact() emits an immutable Graph
// preserving node IDs (removed nodes become isolated), which the static
// kernels consume.
type Overlay struct {
	base  *Graph
	baseN int
	n     int // current node count, including appended and tombstoned nodes
	dead  []bool
	nDead int
	add   map[NodeID][]NodeID // sorted added neighbors, mirrored on both endpoints
	del   map[NodeID][]NodeID // sorted deleted base neighbors, mirrored
	m     int                 // live undirected edge count
}

// NewOverlay returns an overlay over base with no pending deltas.
func NewOverlay(base *Graph) *Overlay {
	n := base.NumNodes()
	return &Overlay{
		base:  base,
		baseN: n,
		n:     n,
		dead:  make([]bool, n),
		add:   make(map[NodeID][]NodeID),
		del:   make(map[NodeID][]NodeID),
		m:     base.NumEdges(),
	}
}

// NumNodes returns the size of the dense ID space 0..n-1, including removed
// (tombstoned) nodes — IDs are never recycled.
func (o *Overlay) NumNodes() int { return o.n }

// NumLiveNodes returns the number of nodes that have not been removed.
func (o *Overlay) NumLiveNodes() int { return o.n - o.nDead }

// NumEdges returns the number of live undirected edges.
func (o *Overlay) NumEdges() int { return o.m }

// Alive reports whether v is a valid, non-removed node.
func (o *Overlay) Alive(v NodeID) bool {
	return int(v) >= 0 && int(v) < o.n && !o.dead[v]
}

// AddNodes appends k isolated nodes and returns the ID of the first one.
// It panics with ErrTooManyNodes beyond the 32-bit node plane.
func (o *Overlay) AddNodes(k int) NodeID {
	if k <= 0 {
		return NodeID(o.n)
	}
	if o.n+k > MaxNodes {
		panic(fmt.Errorf("%w: n=%d", ErrTooManyNodes, o.n+k))
	}
	first := NodeID(o.n)
	o.n += k
	o.dead = append(o.dead, make([]bool, k)...)
	return first
}

// RemoveNode tombstones v and its incident edges. It reports whether v was
// alive (false is a no-op).
func (o *Overlay) RemoveNode(v NodeID) bool {
	if !o.Alive(v) {
		return false
	}
	o.m -= o.Degree(v)
	o.dead[v] = true
	o.nDead++
	return true
}

// AddEdge inserts the undirected edge {u, v}. Inserting an existing live edge
// is a no-op; re-inserting a deleted base edge un-deletes it. Errors mirror
// Builder.AddEdge: self-loops, out-of-range endpoints, and removed endpoints.
func (o *Overlay) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
	}
	if !o.Alive(u) || !o.Alive(v) {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrNodeOutOfRange, u, v, o.n)
	}
	if o.baseEdge(u, v) {
		if sortedRemove(o.del, u, v) { // was deleted: un-delete
			sortedRemove(o.del, v, u)
			o.m++
		}
		return nil
	}
	if sortedInsert(o.add, u, v) {
		sortedInsert(o.add, v, u)
		o.m++
	}
	return nil
}

// RemoveEdge deletes the undirected edge {u, v}, reporting whether a live
// edge was removed.
func (o *Overlay) RemoveEdge(u, v NodeID) bool {
	if u == v || !o.Alive(u) || !o.Alive(v) {
		return false
	}
	if sortedRemove(o.add, u, v) {
		sortedRemove(o.add, v, u)
		o.m--
		return true
	}
	if o.baseEdge(u, v) && sortedInsert(o.del, u, v) {
		sortedInsert(o.del, v, u)
		o.m--
		return true
	}
	return false
}

// HasEdge reports whether {u, v} is a live edge.
func (o *Overlay) HasEdge(u, v NodeID) bool {
	if u == v || !o.Alive(u) || !o.Alive(v) {
		return false
	}
	if containsSorted(o.add[u], v) {
		return true
	}
	return o.baseEdge(u, v) && !containsSorted(o.del[u], v)
}

// baseEdge reports whether {u, v} is an edge of the base CSR (ignoring
// deltas). Appended nodes have no base adjacency.
func (o *Overlay) baseEdge(u, v NodeID) bool {
	return int(u) < o.baseN && int(v) < o.baseN && o.base.HasEdge(u, v)
}

// Degree returns the live degree of u (0 for removed nodes).
func (o *Overlay) Degree(u NodeID) int {
	d := 0
	o.ForEachNeighbor(u, func(NodeID) bool { d++; return true })
	return d
}

// AppendNeighbors appends the live neighbors of u (ascending) to buf.
func (o *Overlay) AppendNeighbors(buf []NodeID, u NodeID) []NodeID {
	o.ForEachNeighbor(u, func(v NodeID) bool {
		buf = append(buf, v)
		return true
	})
	return buf
}

// ForEachNeighbor calls fn for every live neighbor of u in ascending order:
// the sorted merge of base-minus-deleted and added neighbor lists, filtered
// by tombstones. fn returning false stops the stream early.
func (o *Overlay) ForEachNeighbor(u NodeID, fn func(v NodeID) bool) {
	if !o.Alive(u) {
		return
	}
	var base []NodeID
	if int(u) < o.baseN {
		base = o.base.Neighbors(u)
	}
	added := o.add[u]
	deleted := o.del[u]
	i, j, k := 0, 0, 0
	for i < len(base) || j < len(added) {
		var v NodeID
		// Base and added lists are disjoint by invariant, so plain <= never
		// sees a tie; take the smaller head.
		if j >= len(added) || (i < len(base) && base[i] <= added[j]) {
			v = base[i]
			i++
			for k < len(deleted) && deleted[k] < v {
				k++
			}
			if k < len(deleted) && deleted[k] == v {
				continue
			}
		} else {
			v = added[j]
			j++
		}
		if o.dead[v] {
			continue
		}
		if !fn(v) {
			return
		}
	}
}

// Compact folds the accumulated deltas into a fresh immutable Graph with the
// same dense ID space (removed nodes stay as isolated IDs, so colorings and
// other node-indexed state carry over without relabelling). The overlay
// remains usable afterwards; callers who want a clean slate wrap the result
// in NewOverlay.
func (o *Overlay) Compact() *Graph {
	b := NewBuilder(o.n)
	b.Grow(o.m)
	for u := 0; u < o.n; u++ {
		o.ForEachNeighbor(NodeID(u), func(v NodeID) bool {
			if v > NodeID(u) {
				if err := b.AddEdge(NodeID(u), v); err != nil {
					panic(err) // unreachable: overlay invariants imply valid edges
				}
			}
			return true
		})
	}
	return b.Build()
}

// sortedInsert inserts v into m[u] keeping the slice sorted; it reports
// whether v was newly inserted.
func sortedInsert(m map[NodeID][]NodeID, u, v NodeID) bool {
	lst := m[u]
	i, found := slices.BinarySearch(lst, v)
	if found {
		return false
	}
	m[u] = slices.Insert(lst, i, v)
	return true
}

// sortedRemove removes v from m[u], reporting whether it was present.
func sortedRemove(m map[NodeID][]NodeID, u, v NodeID) bool {
	lst := m[u]
	i, found := slices.BinarySearch(lst, v)
	if !found {
		return false
	}
	m[u] = slices.Delete(lst, i, i+1)
	return true
}

// containsSorted reports whether sorted lst contains v.
func containsSorted(lst []NodeID, v NodeID) bool {
	_, found := slices.BinarySearch(lst, v)
	return found
}
