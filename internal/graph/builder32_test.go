package graph

import (
	"errors"
	"testing"
)

// TestBuilderOverflowGuardNodes exercises the n ≥ 2³¹ arm of the 32-bit
// node-plane guard: a builder over more than MaxNodes nodes is poisoned at
// construction — AddEdge and Err report ErrTooManyNodes, and Build panics
// with it instead of silently truncating node IDs.
func TestBuilderOverflowGuardNodes(t *testing.T) {
	b := NewBuilder(MaxNodes + 1)
	if err := b.Err(); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("Err() = %v, want ErrTooManyNodes", err)
	}
	if err := b.AddEdge(0, 1); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("AddEdge = %v, want ErrTooManyNodes", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Build on a poisoned builder should panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrTooManyNodes) {
			t.Fatalf("Build panicked with %v, want ErrTooManyNodes", r)
		}
	}()
	b.Build()
}

// TestBuilderOverflowGuardSlots exercises the 2m ≥ 2³¹ arm: once the
// appended directed slot count reaches the 32-bit limit, AddEdge fails with
// the sticky ErrTooManyEdges. The counter is advanced directly (white box) —
// actually appending 2³⁰ edges would need 8 GiB.
func TestBuilderOverflowGuardSlots(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	b.slots = maxEdgeSlots - 1 // one slot left: the next edge needs two
	if err := b.AddEdge(2, 3); !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("AddEdge at the slot limit = %v, want ErrTooManyEdges", err)
	}
	if err := b.Err(); !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("Err() = %v, want sticky ErrTooManyEdges", err)
	}
	// Sticky: later well-formed adds keep failing rather than corrupting the
	// already-inconsistent counts.
	if err := b.AddEdge(0, 2); !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("AddEdge after overflow = %v, want ErrTooManyEdges", err)
	}
}

// TestBuilderChunkBoundaries drives the chunked edge store across many tiny
// chunks — duplicates, both orientations, appends straddling chunk seams —
// and checks the finished CSR is identical to the single-chunk build.
func TestBuilderChunkBoundaries(t *testing.T) {
	const n = 37
	var edges []Edge
	for u := 0; u < n; u++ {
		for k := 1; k <= 4; k++ {
			v := (u + k*5 + 1) % n
			if u != v {
				edges = append(edges, Edge{U: NodeID(u), V: NodeID(v)})
			}
		}
	}
	// Duplicates in both orientations must still collapse.
	edges = append(edges, edges[3], Edge{U: edges[5].V, V: edges[5].U})

	want, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunkEdges := range []int{1, 2, 3, 7, len(edges) + 1} {
		b := NewBuilder(n)
		b.chunkEdges = chunkEdges
		for _, e := range edges {
			if err := b.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		if len(edges) > chunkEdges && len(b.chunks) < 2 {
			t.Fatalf("chunkEdges=%d: expected multiple chunks, got %d", chunkEdges, len(b.chunks))
		}
		g := b.Build()
		if g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges() || g.MaxDegree() != want.MaxDegree() {
			t.Fatalf("chunkEdges=%d: got %v, want %v", chunkEdges, g, want)
		}
		for u := 0; u < n; u++ {
			got, exp := g.Neighbors(NodeID(u)), want.Neighbors(NodeID(u))
			if len(got) != len(exp) {
				t.Fatalf("chunkEdges=%d: node %d has %d neighbors, want %d", chunkEdges, u, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("chunkEdges=%d: node %d neighbor %d = %d, want %d", chunkEdges, u, i, got[i], exp[i])
				}
			}
		}
	}
}

// TestBuilderBuildConsumesAndReusable pins the chunked builder's contract:
// Build consumes the pending edges (the chunk store is released during the
// scatter), leaving an empty builder that can assemble a fresh graph.
func TestBuilderBuildConsumesAndReusable(t *testing.T) {
	b := NewBuilder(5)
	mustAdd := func(u, v NodeID) {
		t.Helper()
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 1)
	mustAdd(1, 2)
	g1 := b.Build()
	if g1.NumEdges() != 2 {
		t.Fatalf("first build: %d edges, want 2", g1.NumEdges())
	}
	if b.chunks != nil || b.slots != 0 {
		t.Fatal("Build should release the chunk store")
	}
	if g2 := b.Build(); g2.NumEdges() != 0 || g2.NumNodes() != 5 {
		t.Fatalf("build after consume: %v, want 5 nodes 0 edges", g2)
	}
	mustAdd(3, 4)
	g3 := b.Build()
	if g3.NumEdges() != 1 || g3.Degree(3) != 1 || g3.Degree(0) != 0 {
		t.Fatalf("reused builder: %v", g3)
	}
	// The first graph must be unaffected by the reuse.
	if g1.NumEdges() != 2 || g1.Degree(0) != 1 {
		t.Fatalf("earlier graph mutated by builder reuse: %v", g1)
	}
}

// TestEdgeSlotsGuard checks the 32-bit slot guard that the Builder and the
// direct G² emission (Dist2View.InducedSubgraphOf) share, at its boundary:
// maxEdgeSlots slots pass and one more fails with ErrTooManyEdges. Testing
// the helper needs no 2³¹-slot graph.
func TestEdgeSlotsGuard(t *testing.T) {
	for _, slots := range []int{0, 2, maxEdgeSlots - 1, maxEdgeSlots} {
		if err := edgeSlotsErr(slots); err != nil {
			t.Errorf("edgeSlotsErr(%d) = %v, want nil", slots, err)
		}
	}
	for _, slots := range []int{maxEdgeSlots + 1, 2 * maxEdgeSlots} {
		if err := edgeSlotsErr(slots); !errors.Is(err, ErrTooManyEdges) {
			t.Errorf("edgeSlotsErr(%d) = %v, want ErrTooManyEdges", slots, err)
		}
	}
}
