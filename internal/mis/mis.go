// Package mis implements distance-k maximal independent sets with Luby's
// randomized algorithm, the "easy neighbour" of distance-2 coloring that the
// paper's introduction uses to position the problem ("The distance-k maximal
// independent set problem can easily be solved in O(k log n) time using
// Luby's algorithm"). It serves as an extension feature and as another
// consumer of the graph and cost-accounting substrates.
//
// A distance-k MIS is a set S of nodes such that any two members are at
// distance greater than k, and every non-member has a member within distance
// k. For k = 1 this is the classical MIS; for k = 2 it is an independent set
// of G², the object underlying e.g. cluster-center selection.
//
// The implementation runs Luby's algorithm on G^k at phase granularity and
// charges k CONGEST rounds per G^k round (each G^k round is a k-hop
// information exchange realized by k flooding rounds on G), plus one round
// per phase for the removal notifications — the O(k log n) accounting of the
// introduction. The conflict graph G^k itself is never materialized: the
// Luby loop streams distance-at-most-k neighborhoods through a
// graph.DistKView (a bounded BFS over the CSR arrays with a reusable
// generation-stamped mark buffer).
package mis

import (
	"errors"
	"fmt"
	"math"

	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/rng"
)

// Result is the outcome of a distance-k MIS computation.
type Result struct {
	// InSet[v] reports whether v belongs to the independent set.
	InSet []bool
	// Phases is the number of Luby phases executed.
	Phases int
	// Metrics is the CONGEST cost (charged rounds).
	Metrics congest.Metrics
}

// Options configures Run.
type Options struct {
	// K is the distance parameter (K >= 1).
	K int
	// MaxPhases bounds the Luby loop; 0 means 64·log₂ n + 64 (completion
	// happens in O(log n) phases w.h.p.).
	MaxPhases int
}

// Errors.
var (
	ErrBadK       = errors.New("mis: distance parameter K must be at least 1")
	ErrIncomplete = errors.New("mis: phase budget exhausted before the set became maximal")
)

// Run computes a distance-K maximal independent set of g; the seed drives
// the per-node randomness.
func Run(g *graph.Graph, opts Options, seed uint64) (Result, error) {
	if opts.K < 1 {
		return Result{}, fmt.Errorf("%w (got %d)", ErrBadK, opts.K)
	}
	n := g.NumNodes()
	res := Result{InSet: make([]bool, n)}
	if n == 0 {
		return res, nil
	}
	maxPhases := opts.MaxPhases
	if maxPhases <= 0 {
		maxPhases = 64*int(math.Ceil(math.Log2(float64(maxInt(n, 2))))) + 64
	}

	// The conflict graph is G^K; Luby's algorithm streams its neighborhoods.
	power := graph.NewDistKView(g, opts.K)

	const (
		stateLive = iota
		stateIn
		stateOut
	)
	state := make([]int, n)
	rand := make([]*rng.Source, n)
	for v := 0; v < n; v++ {
		rand[v] = rng.Split(seed, uint64(v)+0xA11CE)
	}

	// Phase buffers are hoisted out of the loop and reused, in the same
	// spirit as the simulator's preallocated message plane: the Luby loop
	// runs O(log n) phases and should not churn per-phase slices.
	priority := make([]uint64, n)
	joined := make([]graph.NodeID, 0, n)
	liveCount := n
	for res.Phases = 0; res.Phases < maxPhases && liveCount > 0; res.Phases++ {
		// Each live node draws a random priority; a node joins the set when
		// its priority beats every live G^K-neighbour's priority (Luby).
		for v := 0; v < n; v++ {
			if state[v] == stateLive {
				priority[v] = rand[v].Uint64()
			}
		}
		joined = joined[:0]
		for v := 0; v < n; v++ {
			if state[v] != stateLive {
				continue
			}
			win := true
			power.ForEach(graph.NodeID(v), func(u graph.NodeID) bool {
				if state[u] == stateLive {
					if priority[u] > priority[v] || (priority[u] == priority[v] && u > graph.NodeID(v)) {
						win = false
						return false
					}
				}
				return true
			})
			if win {
				joined = append(joined, graph.NodeID(v))
			}
		}
		for _, v := range joined {
			state[v] = stateIn
			res.InSet[v] = true
			liveCount--
		}
		for _, v := range joined {
			power.ForEach(v, func(u graph.NodeID) bool {
				if state[u] == stateLive {
					state[u] = stateOut
					liveCount--
				}
				return true
			})
		}
		// Cost: one G^K round to exchange priorities (K rounds on G), one
		// G^K round to announce joins/removals (K rounds on G).
		res.Metrics.ChargedRounds += 2 * opts.K
	}
	if liveCount > 0 {
		return res, fmt.Errorf("%w: %d nodes still undecided after %d phases", ErrIncomplete, liveCount, res.Phases)
	}
	return res, nil
}

// Verify checks that inSet is a distance-k maximal independent set of g: no
// two members within distance k, and every non-member within distance k of a
// member. It returns nil when both hold.
func Verify(g *graph.Graph, inSet []bool, k int) error {
	if len(inSet) != g.NumNodes() {
		return fmt.Errorf("mis: set has %d entries for %d nodes", len(inSet), g.NumNodes())
	}
	if k < 1 {
		return ErrBadK
	}
	for v := 0; v < g.NumNodes(); v++ {
		dist := g.BFSLimited(graph.NodeID(v), k)
		if inSet[v] {
			for u, d := range dist {
				if u != v && d >= 1 && d <= k && inSet[u] {
					return fmt.Errorf("mis: members %d and %d are at distance %d <= %d", v, u, d, k)
				}
			}
			continue
		}
		covered := false
		for u, d := range dist {
			if d >= 0 && d <= k && inSet[u] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("mis: node %d has no member within distance %d (not maximal)", v, k)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
