// Package graph provides the undirected graph substrate used by every
// algorithm in this repository: a CSR-native adjacency structure, streaming
// distance-2 views (the square graph G² is never materialized on the hot
// paths), workload generators and basic structural queries.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected. Nodes
// are identified by dense integer indices 0..n-1; the CONGEST simulator
// assigns O(log n)-bit identifiers separately (see internal/congest).
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node of a Graph. IDs are dense: 0..NumNodes()-1.
//
// NodeID is 32 bits wide: every node-indexed array of the hot path — the CSR
// target array, the edge index's reverse slots, the CONGEST message plane's
// endpoint fields — stores node identifiers at half the width of the previous
// int representation, which is what lets 10⁷-node simulations fit in
// commodity memory. Graphs are bounded by MaxNodes nodes and maxEdgeSlots
// directed edge slots; the Builder enforces both bounds once, at graph
// assembly, so no other layer needs a range check.
type NodeID int32

// MaxNodes is the largest node count a Graph supports: node IDs, CSR offsets
// and directed edge slots are all 32-bit values.
const MaxNodes = 1<<31 - 1

// Edge is an undirected edge between two nodes. By convention U < V in
// normalized form, but Edge values produced by callers are normalized lazily.
type Edge struct {
	U, V NodeID
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is an immutable simple undirected graph with dense node IDs, stored
// in CSR (compressed sparse row) form: one offsets array of length n+1 and
// one flat targets array of length 2m holding every node's sorted neighbor
// list back to back. Construct one with a Builder or one of the generators in
// this package.
type Graph struct {
	n        int
	off      []int32  // CSR offsets; neighbors of u are tgt[off[u]:off[u+1]]
	tgt      []NodeID // flat neighbor array, sorted within each node's range
	numEdges int
	maxDeg   int

	// ix is the lazily built CSR edge index (see EdgeIndex).
	ixOnce sync.Once
	ix     *EdgeIndex
}

// Errors returned by graph construction and queries.
var (
	ErrSelfLoop       = errors.New("graph: self-loop edges are not allowed")
	ErrNodeOutOfRange = errors.New("graph: node index out of range")
	ErrDuplicateEdge  = errors.New("graph: duplicate edge")
	// ErrTooManyNodes and ErrTooManyEdges are the 32-bit node-plane overflow
	// guards: they fire once, at graph assembly, when a graph would exceed
	// MaxNodes nodes or maxEdgeSlots directed edge slots. Every downstream
	// structure (CSR targets, edge-index slots, message endpoints) relies on
	// this single guard to store node and slot indices in 32 bits.
	ErrTooManyNodes = errors.New("graph: node count exceeds the 32-bit node plane (MaxNodes)")
	ErrTooManyEdges = errors.New("graph: directed edge slots exceed the 32-bit node plane")
)

// builderChunkEdges is the number of edges one builder chunk holds (8 MiB of
// endpoint pairs). Chunks bound the builder's transient memory shape: Build
// releases each chunk right after scattering it into the CSR arrays, so
// finalization never holds the full unsorted edge list and the finished CSR
// simultaneously.
const builderChunkEdges = 1 << 20

// Builder incrementally assembles a Graph. Appended edges are stored once
// (8 bytes per edge) in fixed-size chunks, and per-node slot counts are
// maintained incrementally, so Build can allocate the CSR arrays up front and
// scatter chunk by chunk — releasing every chunk as soon as it is consumed —
// followed by a per-node sort and dedupe: O(m log Δ) time, zero maps, and a
// peak transient of one edge-pair copy instead of the former two. The zero
// value is not usable; use NewBuilder.
type Builder struct {
	n      int
	chunks [][]int32 // appended endpoint pairs, interleaved u,v; released by Build
	deg    []int32   // deg[i+1] counts node i's directed slots (duplicates included); nil until first AddEdge
	slots  int       // total directed slots appended (2 per edge, duplicates included)
	err    error     // sticky overflow state; AddEdge reports it, Build panics on it

	// chunkEdges overrides builderChunkEdges in tests exercising chunk
	// boundaries; 0 means the default.
	chunkEdges int
}

// NewBuilder returns a Builder for a graph with n nodes and no edges.
// A node count beyond MaxNodes poisons the builder: AddEdge returns
// ErrTooManyNodes and Build panics with it.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	b := &Builder{n: n}
	if n > MaxNodes {
		b.err = fmt.Errorf("%w: n=%d > %d", ErrTooManyNodes, n, MaxNodes)
	}
	return b
}

// chunkCap returns the per-chunk edge capacity.
func (b *Builder) chunkCap() int {
	if b.chunkEdges > 0 {
		return b.chunkEdges
	}
	return builderChunkEdges
}

// Grow hints that about m further edges will be added. With the chunked edge
// store appends are already amortized O(1) and bounded at one chunk of
// overallocation; Grow pre-sizes the tail chunk (up to the chunk capacity) so
// generators with known edge counts below it avoid intermediate reallocation
// entirely.
func (b *Builder) Grow(m int) {
	if m <= 0 || b.err != nil {
		return
	}
	if m > b.chunkCap() {
		m = b.chunkCap()
	}
	if len(b.chunks) == 0 {
		b.chunks = append(b.chunks, make([]int32, 0, 2*m))
		return
	}
	tail := b.chunks[len(b.chunks)-1]
	if need := len(tail) + 2*m; need <= 2*b.chunkCap() && need > cap(tail) {
		grown := make([]int32, len(tail), need)
		copy(grown, tail)
		b.chunks[len(b.chunks)-1] = grown
	}
}

// NumNodes returns the number of nodes the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// Err returns the builder's sticky overflow error, if any: ErrTooManyNodes
// from construction or ErrTooManyEdges once the appended edges exceed the
// 32-bit slot space.
func (b *Builder) Err() error { return b.err }

// AddEdge adds the undirected edge {u, v}. It returns an error for
// self-loops, out-of-range endpoints, and — sticky, see Err — when the graph
// would exceed the 32-bit node plane. Adding an existing edge is a no-op
// (duplicates are collapsed by Build).
func (b *Builder) AddEdge(u, v NodeID) error {
	if b.err != nil {
		return b.err
	}
	if u == v {
		return fmt.Errorf("%w: {%d,%d}", ErrSelfLoop, u, v)
	}
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrNodeOutOfRange, u, v, b.n)
	}
	if err := edgeSlotsErr(b.slots + 2); err != nil {
		b.err = err
		return err
	}
	if b.deg == nil {
		b.deg = make([]int32, b.n+1)
	}
	// Chunks grow by append (small graphs never pay a full chunk) and are
	// sealed at the chunk capacity, bounding both the per-append overshoot
	// and the size of the pieces Build releases.
	cc := 2 * b.chunkCap()
	if len(b.chunks) == 0 || len(b.chunks[len(b.chunks)-1]) >= cc {
		b.chunks = append(b.chunks, nil)
	}
	tail := len(b.chunks) - 1
	b.chunks[tail] = append(b.chunks[tail], int32(u), int32(v))
	b.deg[u+1]++
	b.deg[v+1]++
	b.slots += 2
	return nil
}

// HasEdge reports whether the edge {u, v} has been added. It scans the
// chunked pair list (O(edges added)); it exists for tests and small fixtures,
// not for hot paths.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n {
		return false
	}
	for _, chunk := range b.chunks {
		for i := 0; i+1 < len(chunk); i += 2 {
			cu, cv := NodeID(chunk[i]), NodeID(chunk[i+1])
			if (cu == u && cv == v) || (cu == v && cv == u) {
				return true
			}
		}
	}
	return false
}

// Build finalizes the pending edges into an immutable Graph. Neighbor lists
// are sorted so that iteration order is deterministic; duplicate edges
// collapse. Build consumes the edge list: each chunk is released as soon as
// it has been scattered into the CSR arrays, so the full unsorted pair list
// and the finished CSR never coexist (the transient peak is the chunk store
// plus the CSR, decaying to the CSR alone as chunks free). Afterwards the
// builder is empty and may be reused to assemble a new graph from scratch.
func (b *Builder) Build() *Graph {
	if b.err != nil {
		panic(b.err)
	}
	// The per-node slot counts were maintained by AddEdge; one prefix sum
	// turns them into CSR offsets (reusing the allocation).
	deg := b.deg
	if deg == nil {
		deg = make([]int32, b.n+1)
	}
	for i := 1; i <= b.n; i++ {
		deg[i] += deg[i-1]
	}
	off := deg
	tgt := make([]NodeID, b.slots)
	pos := make([]int32, b.n)
	copy(pos, off[:b.n])
	for ci, chunk := range b.chunks {
		for i := 0; i+1 < len(chunk); i += 2 {
			u, v := chunk[i], chunk[i+1]
			tgt[pos[u]] = NodeID(v)
			pos[u]++
			tgt[pos[v]] = NodeID(u)
			pos[v]++
		}
		b.chunks[ci] = nil // release the chunk before the next one scatters
	}
	b.chunks = nil
	b.deg = nil // consumed (became off); a reused builder re-counts from zero
	b.slots = 0
	// Per-node sort + in-place dedupe, compacting the flat array as we go.
	w := int32(0)
	maxDeg := 0
	prevEnd := int32(0)
	for u := 0; u < b.n; u++ {
		lo, hi := prevEnd, off[u+1]
		prevEnd = hi
		lst := tgt[lo:hi]
		slices.Sort(lst)
		start := w
		for i, v := range lst {
			if i > 0 && v == lst[i-1] {
				continue
			}
			tgt[w] = v
			w++
		}
		off[u] = start
		if d := int(w - start); d > maxDeg {
			maxDeg = d
		}
	}
	off[b.n] = w
	// Shift offsets: off[u] currently holds the start of u; that is already
	// the CSR convention, nothing further to do.
	return &Graph{n: b.n, off: off, tgt: tgt[:w:w], numEdges: int(w) / 2, maxDeg: maxDeg}
}

// edgeSlotsErr is the 32-bit slot guard shared by every graph assembly path:
// it returns ErrTooManyEdges when slots directed edge slots exceed
// maxEdgeSlots, and nil otherwise.
func edgeSlotsErr(slots int) error {
	if slots > maxEdgeSlots {
		return fmt.Errorf("%w: %d directed slots > %d", ErrTooManyEdges, slots, maxEdgeSlots)
	}
	return nil
}

// fromCSR wraps prebuilt CSR arrays into a Graph. The caller guarantees that
// every node's range of tgt is sorted, duplicate- and self-loop-free, and
// symmetric (v appears under u iff u appears under v).
func fromCSR(n int, off []int32, tgt []NodeID) *Graph {
	maxDeg := 0
	for u := 0; u < n; u++ {
		if d := int(off[u+1] - off[u]); d > maxDeg {
			maxDeg = d
		}
	}
	return &Graph{n: n, off: off, tgt: tgt, numEdges: len(tgt) / 2, maxDeg: maxDeg}
}

// FromEdges builds a graph with n nodes and the given edges. Duplicate edges
// are collapsed; self-loops and out-of-range endpoints cause an error.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// MustFromEdges is FromEdges that panics on error. It is intended for tests
// and package-internal fixtures with statically known-good input.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// MaxDegree returns Δ, the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int { return int(g.off[u+1] - g.off[u]) }

// Neighbors returns the neighbor list of u (a subslice of the CSR target
// array, sorted ascending). The returned slice is owned by the graph and must
// not be modified; copy it if mutation is needed.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.tgt[g.off[u]:g.off[u+1]] }

// HasEdge reports whether {u, v} is an edge. Runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return false
	}
	lst := g.Neighbors(u)
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= v })
	return i < len(lst) && lst[i] == v
}

// Edges returns all edges in normalized (U < V) order, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				out = append(out, Edge{U: NodeID(u), V: v})
			}
		}
	}
	return out
}

// Nodes returns the node IDs 0..n-1.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, g.n)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	off := make([]int32, len(g.off))
	copy(off, g.off)
	tgt := make([]NodeID, len(g.tgt))
	copy(tgt, g.tgt)
	return &Graph{n: g.n, off: off, tgt: tgt, numEdges: g.numEdges, maxDeg: g.maxDeg}
}

// InducedSubgraphOf returns the subgraph induced by nodes, which must be
// sorted ascending and duplicate-free; node i of the result is nodes[i].
// index is the caller's old→new scratch of length NumNodes(): only the
// entries of nodes are written, and the others may hold any value (a member
// v is recognized by nodes[index[v]] == v), so a caller that keeps one index
// across calls extracts in O(|nodes| + their degrees), never O(n). It panics
// if nodes is unsorted, out of range or duplicated, or index has the wrong
// length. It is InducedSubgraphInto with fresh storage.
func (g *Graph) InducedSubgraphOf(nodes []NodeID, index []int32) *Graph {
	return g.InducedSubgraphInto(nodes, index, new(Subgraph))
}

// memberIndex returns v's position in nodes through the sparse-set index of
// InducedSubgraphOf, or -1 when v is not in nodes (index[v] may then hold
// any value).
func memberIndex(nodes []NodeID, index []int32, v NodeID) int32 {
	if i := index[v]; i >= 0 && int(i) < len(nodes) && nodes[i] == v {
		return i
	}
	return -1
}

// Subgraph is caller-owned storage for induced subgraphs: the sub-CSR, its
// edge index (Rev included), and each kept node's neighbors outside the
// subgraph. Extracting into the same Subgraph again reuses every buffer,
// growing one only when a subgraph outgrows all earlier ones, so a warm
// extraction allocates nothing. The zero value is ready to use.
type Subgraph struct {
	g      Graph
	ix     EdgeIndex
	next   []int32  // per-node reverse-slot cursors of the Rev pass
	outOff []int32  // outside neighbors of kept node i: outTgt[outOff[i]:outOff[i+1]]
	outTgt []NodeID // original IDs, ascending within each node
}

// Outside returns the neighbors of kept node i (a subgraph ID) that are not
// in the subgraph, as original node IDs in ascending order. The slice is
// owned by the Subgraph and valid until its next extraction.
func (s *Subgraph) Outside(i NodeID) []NodeID { return s.outTgt[s.outOff[i]:s.outOff[i+1]] }

// InducedSubgraphInto is InducedSubgraphOf writing into dst: it returns
// dst's graph, which — with its edge index and dst's Outside lists — stays
// valid until the next extraction into dst overwrites it. One walk over
// each kept node's adjacency emits both its in-subgraph neighbors (the
// sub-CSR) and the rest (Outside); the reverse slots follow in one linear
// pass with no neighbor search.
func (g *Graph) InducedSubgraphInto(nodes []NodeID, index []int32, dst *Subgraph) *Graph {
	if len(index) != g.n {
		panic(fmt.Sprintf("graph: index has length %d, want %d", len(index), g.n))
	}
	slots := 0
	for i, v := range nodes {
		if v < 0 || int(v) >= g.n || (i > 0 && v <= nodes[i-1]) {
			panic(fmt.Sprintf("graph: induced node list must be ascending in [0, %d); entry %d is %d", g.n, i, v))
		}
		index[v] = int32(i)
		slots += g.Degree(v)
	}
	// The source lists are sorted and the kept relabelling is monotone, so
	// each new list stays sorted without resorting. Both target arrays are
	// presized to the kept degree sum, so the appends never reallocate.
	nn := len(nodes)
	off := append(slices.Grow(dst.g.off[:0], nn+1), 0)
	tgt := slices.Grow(dst.g.tgt[:0], slots)
	outOff := append(slices.Grow(dst.outOff[:0], nn+1), 0)
	outTgt := slices.Grow(dst.outTgt[:0], slots)
	maxDeg := 0
	for _, orig := range nodes {
		for _, v := range g.Neighbors(orig) {
			if i := memberIndex(nodes, index, v); i >= 0 {
				tgt = append(tgt, NodeID(i))
			} else {
				outTgt = append(outTgt, v)
			}
		}
		if d := len(tgt) - int(off[len(off)-1]); d > maxDeg {
			maxDeg = d
		}
		off = append(off, int32(len(tgt)))
		outOff = append(outOff, int32(len(outTgt)))
	}
	// Rev: sources are visited in ascending order and every list is sorted,
	// so the k-th slot found pointing at v is the reverse of v's k-th slot.
	next := slices.Grow(dst.next[:0], nn)[:nn]
	copy(next, off[:nn])
	rev := slices.Grow(dst.ix.Rev[:0], len(tgt))[:len(tgt)]
	for e, v := range tgt {
		rev[e] = next[v]
		next[v]++
	}
	dst.next, dst.outOff, dst.outTgt = next, outOff, outTgt
	dst.ix = EdgeIndex{Offsets: off, Targets: tgt, Rev: rev}
	dst.g = Graph{n: nn, off: off, tgt: tgt, numEdges: len(tgt) / 2, maxDeg: maxDeg, ix: &dst.ix}
	dst.g.ixOnce.Do(func() {}) // the index above is already built
	return &dst.g
}

// AverageDegree returns the average degree 2m/n (0 for the empty graph).
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.numEdges) / float64(g.n)
}

// String returns a short human-readable summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, Δ=%d)", g.n, g.numEdges, g.maxDeg)
}
