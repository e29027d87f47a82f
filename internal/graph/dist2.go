package graph

import "fmt"

// This file implements the streaming distance-2 plane: the paper's whole
// point is coloring G² in CONGEST without ever constructing G², and the
// substrate mirrors that. A Dist2View answers neighborhood queries on G² by
// walking the CSR arrays of G with a reusable generation-stamped mark buffer,
// so no per-node set, map, or materialized square adjacency is ever
// allocated. Graph.Square() remains available as a test oracle only.

// MarkSet is a generation-stamped membership set over dense IDs in [0, n).
// Reset is O(1): it bumps the generation instead of clearing the buffer.
// Algorithm layers pool MarkSets next to their Dist2Views for conflict
// checks, sparsity counting and similarity intersection.
type MarkSet struct {
	mark []uint32
	gen  uint32
}

// NewMarkSet returns a MarkSet for IDs 0..n-1.
func NewMarkSet(n int) *MarkSet {
	if n < 0 {
		n = 0
	}
	return &MarkSet{mark: make([]uint32, n), gen: 1}
}

// Reset empties the set in O(1) by advancing the generation stamp.
func (s *MarkSet) Reset() {
	s.gen++
	if s.gen == 0 { // wrapped after 2³² resets: clear once, start over
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.gen = 1
	}
}

// Add inserts v and reports whether it was newly inserted.
func (s *MarkSet) Add(v NodeID) bool {
	if s.mark[v] == s.gen {
		return false
	}
	s.mark[v] = s.gen
	return true
}

// Contains reports whether v is in the set.
func (s *MarkSet) Contains(v NodeID) bool { return s.mark[v] == s.gen }

// Grow extends the ID range to n, preserving current membership. IDs below
// the old range keep their stamps; new IDs start absent.
func (s *MarkSet) Grow(n int) {
	if n <= len(s.mark) {
		return
	}
	grown := make([]uint32, n)
	copy(grown, s.mark)
	s.mark = grown
}

// Dist2View streams distance-2 neighborhoods of a graph: for every query it
// walks N(u) and the N(v) of each neighbor v directly in the CSR arrays,
// deduplicating with an internal MarkSet. Nothing proportional to |E(G²)| is
// ever allocated.
//
// A view is NOT safe for concurrent use (the mark buffer and scratch slice
// are reused across calls); create one view per goroutine — construction is
// O(n). Methods that stream (ForEachDist2, AppendDist2, Neighbors,
// Dist2Degree) must not be re-entered from inside a callback; materialize one
// side with AppendDist2 into a caller-owned buffer when two neighborhoods
// must be inspected together.
type Dist2View struct {
	g       *Graph
	marks   *MarkSet
	scratch []NodeID
	maxD2   int // cached Δ(G²); -1 until computed
	mD2     int // cached m(G²); -1 until computed
}

// NewDist2View returns a streaming distance-2 view of g.
func NewDist2View(g *Graph) *Dist2View {
	return &Dist2View{g: g, marks: NewMarkSet(g.NumNodes()), maxD2: -1, mD2: -1}
}

// Graph returns the underlying graph.
func (d *Dist2View) Graph() *Graph { return d.g }

// NumNodes returns the number of nodes (G and G² share the node set).
func (d *Dist2View) NumNodes() int { return d.g.NumNodes() }

// ForEachDist2 calls fn for every distance-2 neighbor of u (nodes at distance
// 1 or 2, excluding u itself), i.e. N_{G²}(u), each exactly once. Direct
// neighbors are visited first in ascending order, then two-hop neighbors in
// CSR walk order; the order is deterministic but not globally sorted. fn
// returning false stops the stream early.
func (d *Dist2View) ForEachDist2(u NodeID, fn func(v NodeID) bool) {
	d.marks.Reset()
	d.marks.Add(u)
	nbrs := d.g.Neighbors(u)
	for _, v := range nbrs {
		if d.marks.Add(v) && !fn(v) {
			return
		}
	}
	for _, v := range nbrs {
		for _, w := range d.g.Neighbors(v) {
			if d.marks.Add(w) && !fn(w) {
				return
			}
		}
	}
}

// AppendDist2 appends the distance-2 neighbors of u to buf, in
// ForEachDist2's order, and returns the extended slice. buf is caller-owned,
// so the result survives further view calls (unlike Neighbors). It repeats
// ForEachDist2's walk instead of calling it, so no callback runs per node.
func (d *Dist2View) AppendDist2(buf []NodeID, u NodeID) []NodeID {
	d.marks.Reset()
	d.marks.Add(u)
	nbrs := d.g.Neighbors(u)
	for _, v := range nbrs {
		if d.marks.Add(v) {
			buf = append(buf, v)
		}
	}
	for _, v := range nbrs {
		for _, w := range d.g.Neighbors(v) {
			if d.marks.Add(w) {
				buf = append(buf, w)
			}
		}
	}
	return buf
}

// Neighbors returns N_{G²}(u) in the view's internal scratch buffer, so a
// Dist2View satisfies the same conflict-graph shape as *Graph (NumNodes,
// MaxDegree, Neighbors). The slice is INVALIDATED by the next call to any
// streaming method; copy it (or use AppendDist2) if it must survive.
func (d *Dist2View) Neighbors(u NodeID) []NodeID {
	d.scratch = d.AppendDist2(d.scratch[:0], u)
	return d.scratch
}

// Dist2Degree returns |N_{G²}(u)| by streaming, without storing the
// neighborhood.
func (d *Dist2View) Dist2Degree(u NodeID) int {
	count := 0
	d.ForEachDist2(u, func(NodeID) bool { count++; return true })
	return count
}

// MaxDist2Degree returns Δ(G²), computed on first use with one streaming pass
// over all nodes and cached (along with m(G²)) afterwards.
func (d *Dist2View) MaxDist2Degree() int {
	d.computeAggregates()
	return d.maxD2
}

// MaxDegree is MaxDist2Degree under the conflict-graph naming, so a Dist2View
// can stand in for the materialized square wherever an algorithm asks for the
// maximum degree of its conflict graph.
func (d *Dist2View) MaxDegree() int { return d.MaxDist2Degree() }

// NumDist2Edges returns m(G²), the number of undirected edges of the square,
// computed by streaming degrees (cached together with Δ(G²)).
func (d *Dist2View) NumDist2Edges() int {
	d.computeAggregates()
	return d.mD2
}

func (d *Dist2View) computeAggregates() {
	if d.maxD2 >= 0 {
		return
	}
	maxD2, total := 0, 0
	for u := 0; u < d.g.NumNodes(); u++ {
		deg := d.Dist2Degree(NodeID(u))
		total += deg
		if deg > maxD2 {
			maxD2 = deg
		}
	}
	d.maxD2 = maxD2
	d.mD2 = total / 2
}

// IsDist2Neighbor reports whether u and v are at distance 1 or 2 in G. It
// walks the smaller adjacency list with binary searches into the other and
// touches no view state, so it is safe to call from inside a streaming
// callback (and concurrently).
func (d *Dist2View) IsDist2Neighbor(u, v NodeID) bool {
	if u == v {
		return false
	}
	g := d.g
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		return false
	}
	if g.HasEdge(u, v) {
		return true
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u) {
		if g.HasEdge(w, v) {
			return true
		}
	}
	return false
}

// InducedSubgraph returns G²[keep], the subgraph of the square induced by the
// kept nodes, together with the new-to-old ID mapping — without materializing
// the rest of G². It mirrors Graph.InducedSubgraph so either graph can be the
// partitioning target of the Section-3 algorithms.
func (d *Dist2View) InducedSubgraph(keep []bool) (*Graph, []NodeID) {
	newToOld := keptNodes(keep, d.g.NumNodes())
	return d.InducedSubgraphOf(newToOld, make([]int32, d.g.NumNodes())), newToOld
}

// InducedSubgraphOf returns G²[nodes] under Graph.InducedSubgraphOf's
// contract: nodes sorted ascending and duplicate-free, node i of the result
// is nodes[i], and index is the caller's old→new scratch of length
// NumNodes() of which only the entries of nodes are written, so one index
// can be reused across calls.
//
// The square is emitted straight into CSR arrays, with no Builder and no
// sort. One streamed walk per kept node, in ascending order, sizes its row
// and buffers its kept distance-2 neighbors (new IDs, in walk order) in
// chunks. The transposed fill then reads the buffered rows in the same order
// and appends each row's own ID i to the row of every j it lists: row j
// receives its entries in ascending i, each once (the walk deduplicates),
// and G²[nodes] is symmetric, so every row comes out sorted, duplicate-free
// and exactly as long as its own walk counted. It panics with
// ErrTooManyEdges when the result would exceed the 32-bit slot space.
func (d *Dist2View) InducedSubgraphOf(nodes []NodeID, index []int32) *Graph {
	n := d.g.NumNodes()
	if len(index) != n {
		panic(fmt.Sprintf("graph: index has length %d, want %d", len(index), n))
	}
	for i, v := range nodes {
		if v < 0 || int(v) >= n || (i > 0 && v <= nodes[i-1]) {
			panic(fmt.Sprintf("graph: induced node list must be ascending in [0, %d); entry %d is %d", n, i, v))
		}
		index[v] = int32(i)
	}
	nn := len(nodes)
	off := make([]int32, nn+1)
	var chunks [][]int32 // the buffered rows, back to back; a row never straddles two chunks
	var cur, row []int32
	slots := 0
	for i, u := range nodes {
		row = d.appendKept(row[:0], u, nodes, index)
		slots += len(row)
		if err := edgeSlotsErr(slots); err != nil {
			panic(err)
		}
		off[i+1] = int32(slots)
		if len(cur)+len(row) > cap(cur) {
			chunks = append(chunks, cur)
			cur = make([]int32, 0, max(len(row), min(emitChunkLen, slots)))
		}
		cur = append(cur, row...)
	}
	chunks = append(chunks, cur)
	tgt := make([]NodeID, slots)
	next := make([]int32, nn)
	copy(next, off[:nn])
	i := 0
	for c, chunk := range chunks {
		for p := 0; p < len(chunk); i++ {
			end := p + int(off[i+1]-off[i])
			for _, j := range chunk[p:end] {
				tgt[next[j]] = NodeID(i)
				next[j]++
			}
			p = end
		}
		chunks[c] = nil // release each chunk once it is transposed
	}
	return fromCSR(nn, off, tgt)
}

// emitChunkLen caps the buffer chunks of InducedSubgraphOf (256 KiB of
// int32 IDs): chunks grow with the rows emitted so far up to this size, so
// small subgraphs allocate little and large ones are never copied by a
// growing append.
const emitChunkLen = 1 << 16

// appendKept appends to buf the new IDs (positions in nodes, looked up
// through index as in InducedSubgraphOf) of u's distance-2 neighbors that
// are in nodes, in AppendDist2's walk order.
func (d *Dist2View) appendKept(buf []int32, u NodeID, nodes []NodeID, index []int32) []int32 {
	d.marks.Reset()
	d.marks.Add(u)
	nbrs := d.g.Neighbors(u)
	for _, v := range nbrs {
		if d.marks.Add(v) {
			if i := memberIndex(nodes, index, v); i >= 0 {
				buf = append(buf, i)
			}
		}
	}
	for _, v := range nbrs {
		for _, w := range d.g.Neighbors(v) {
			if d.marks.Add(w) {
				if i := memberIndex(nodes, index, w); i >= 0 {
					buf = append(buf, i)
				}
			}
		}
	}
	return buf
}

// Materialize builds the whole square G² with InducedSubgraphOf's direct CSR
// emission. It exists for the one consumer that genuinely needs G² as a
// standing object — the naive baseline that simulates CONGEST on the square —
// and for benchmarks; every other layer streams.
func (d *Dist2View) Materialize() *Graph {
	return d.InducedSubgraphOf(d.g.Nodes(), make([]int32, d.g.NumNodes()))
}

// DistKView streams distance-at-most-k neighborhoods (the conflict
// neighborhoods of G^k) with a bounded BFS over the CSR arrays, using the
// same generation-stamped marking as Dist2View. It streams the network
// decomposition's k-hop balls, so G^k is never materialized and no ball
// costs an n-entry distance array. Not safe for concurrent use; do not
// re-enter streaming methods from callbacks.
type DistKView struct {
	g     *Graph
	k     int
	marks *MarkSet
	queue []NodeID
}

// NewDistKView returns a streaming distance-k view of g (k >= 1).
func NewDistKView(g *Graph, k int) *DistKView {
	if k < 1 {
		k = 1
	}
	return &DistKView{g: g, k: k, marks: NewMarkSet(g.NumNodes())}
}

// ForEach calls fn for every node at distance 1..k from u, each exactly once,
// in deterministic BFS layer order. fn returning false stops the stream.
func (d *DistKView) ForEach(u NodeID, fn func(v NodeID) bool) {
	d.marks.Reset()
	d.marks.Add(u)
	d.queue = append(d.queue[:0], u)
	head := 0
	for depth := 0; depth < d.k; depth++ {
		levelEnd := len(d.queue)
		if head == levelEnd {
			return
		}
		for ; head < levelEnd; head++ {
			v := d.queue[head]
			for _, w := range d.g.Neighbors(v) {
				if d.marks.Add(w) {
					d.queue = append(d.queue, w)
					if !fn(w) {
						return
					}
				}
			}
		}
	}
}
