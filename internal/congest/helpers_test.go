package congest

import "d2color/internal/graph"

// Test-local message kinds.
const (
	kindTestFlood Kind = iota + 1
	kindTestData
)

// ProcessFunc adapts a function to the Process interface, convenient for
// small test protocols.
type ProcessFunc func(ctx *Context, round int, inbox []Message)

// Step implements Process.
func (f ProcessFunc) Step(ctx *Context, round int, inbox []Message) { f(ctx, round, inbox) }

// installAll installs a process for every node of the engine's topology.
func installAll(e *Engine, factory func(v graph.NodeID) Process) {
	for v := 0; v < e.g.NumNodes(); v++ {
		e.SetProcess(graph.NodeID(v), factory(graph.NodeID(v)))
	}
}

// ID modes of testIDs: the identifier spaces a protocol that carries the
// model's O(log n)-bit IDs in its own state may see.
const (
	idsSequential  = iota + 1 // ID(v) = v
	idsPermutation            // a random permutation of 1..n
	idsSparse                 // distinct random values from max(n³, 1024)
)

// testIDs draws n identifiers under mode from seed with a deterministic
// xorshift stream.
func testIDs(mode, n int, seed uint64) []uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ids := make([]uint64, n)
	switch mode {
	case idsSequential:
		for v := range ids {
			ids[v] = uint64(v)
		}
	case idsPermutation:
		for v := range ids {
			ids[v] = uint64(v) + 1
		}
		for i := n - 1; i > 0; i-- {
			j := next() % uint64(i+1)
			ids[i], ids[j] = ids[j], ids[i]
		}
	case idsSparse:
		space := max(uint64(n)*uint64(n)*uint64(n), 1024)
		seen := make(map[uint64]bool, n)
		for v := range ids {
			id := next() % space
			for seen[id] {
				id = next() % space
			}
			seen[id] = true
			ids[v] = id
		}
	}
	return ids
}

func (p *shardPlan) numChunks() int { return len(p.chunkLo) - 1 }

// nodeRange returns the contiguous node range worker w owns.
func (p *shardPlan) nodeRange(w int) (lo, hi int32) {
	return p.chunkLo[p.firstChunk[w]], p.chunkLo[p.firstChunk[w+1]]
}
