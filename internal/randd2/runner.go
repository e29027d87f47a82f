package randd2

import (
	"d2color/internal/coloring"
	"d2color/internal/congest"
	"d2color/internal/graph"
	"d2color/internal/rng"
	"d2color/internal/trial"
)

// runner holds the mutable state of one execution of the randomized
// algorithm: the graph, its streamed distance-2 view, the current partial coloring, the
// similarity graphs, per-node random streams and the accumulated cost
// metrics.
//
// Every decision made by the runner uses only information the corresponding
// node could have gathered in the distributed protocol (its own state, its
// neighbours' colors via the trial/notification mechanism, its H/Ĥ adjacency,
// and the payloads of queries routed to it); the runner merely executes those
// decisions phase by phase and charges the CONGEST rounds the paper assigns
// to each phase.
//
// The hot per-phase machinery is allocation-free: the set of live nodes is a
// maintained (ascending) list compacted as nodes color, and color tries are
// recorded in generation-stamped flat scratch arrays instead of per-phase
// maps (see beginTries/setTry/resolveTries).
type runner struct {
	g       *graph.Graph
	d2      *graph.Dist2View // streaming distance-2 plane; G² is never materialized
	n       int
	delta   int
	palette int
	params  Params
	seed    uint64

	col      coloring.Coloring
	liveLeft int
	sim      *similarity
	rand     []rng.Source
	tk       *trial.Runner // reusable trial kernel (step 2; shared across reps when injected)

	// live is the maintained list of uncolored nodes, always in ascending
	// node order (compaction preserves order), replacing the former O(n)
	// liveNodes() scan per phase.
	live []graph.NodeID

	// Per-round try scratch, generation-stamped so a new round clears it in
	// O(1): tryColor[v] is the color v tries this round iff tryGen[v] equals
	// the current generation. tryList holds the triers in registration
	// order; winners is the reusable result buffer of resolveTries.
	tryColor []int32
	tryGen   []uint32
	curGen   uint32
	tryList  []graph.NodeID
	winners  []graph.NodeID

	// activeScratch is the reusable buffer behind the per-phase "active
	// live nodes" selections of Reduce-Phase.
	activeScratch []graph.NodeID

	metrics      congest.Metrics
	activeRounds int // TotalRounds when the coloring first became complete (-1 while incomplete)
}

func newRunner(g *graph.Graph, p Params, seed uint64, tk *trial.Runner) *runner {
	n := g.NumNodes()
	delta := g.MaxDegree()
	r := &runner{
		g:            g,
		d2:           graph.NewDist2View(g),
		n:            n,
		delta:        delta,
		palette:      delta*delta + 1,
		params:       p,
		seed:         seed,
		col:          coloring.New(n),
		liveLeft:     n,
		rand:         make([]rng.Source, n),
		tk:           tk,
		live:         make([]graph.NodeID, n),
		tryColor:     make([]int32, n),
		tryGen:       make([]uint32, n),
		curGen:       0,
		tryList:      make([]graph.NodeID, 0, n),
		winners:      make([]graph.NodeID, 0, n),
		activeRounds: -1,
	}
	for v := 0; v < n; v++ {
		r.rand[v].ResetSplit(seed, uint64(v)+1)
		r.live[v] = graph.NodeID(v)
	}
	return r
}

// charge adds k charged CONGEST rounds to the run's metrics.
func (r *runner) charge(k int) {
	if k > 0 {
		r.metrics.ChargedRounds += k
	}
	r.noteCompletion()
}

// addMetrics folds the metrics of a simulated sub-protocol into the run.
func (r *runner) addMetrics(m congest.Metrics) {
	r.metrics = r.metrics.Add(m)
	r.noteCompletion()
}

// noteCompletion records the first point at which the coloring is complete.
func (r *runner) noteCompletion() {
	if r.activeRounds < 0 && r.liveLeft == 0 {
		r.activeRounds = r.metrics.TotalRounds()
	}
}

// isLive reports whether v is still uncolored.
func (r *runner) isLive(v graph.NodeID) bool { return r.col[v] == coloring.Uncolored }

// compactLive removes freshly colored nodes from the live list, preserving
// the ascending order. O(live), no allocation.
func (r *runner) compactLive() {
	out := r.live[:0]
	for _, v := range r.live {
		if r.isLive(v) {
			out = append(out, v)
		}
	}
	r.live = out
}

// adoptColoring merges a coloring produced by a sub-protocol (e.g. the step-2
// trial run) into the runner's coloring.
func (r *runner) adoptColoring(c coloring.Coloring) {
	for v := 0; v < r.n; v++ {
		if r.col[v] == coloring.Uncolored && c[v] != coloring.Uncolored {
			r.col[v] = c[v]
			r.liveLeft--
		}
	}
	r.compactLive()
	r.noteCompletion()
}

// colorUsedByColoredD2Neighbor reports whether color c is already used by a
// colored distance-2 neighbour of v. In the protocol this is exactly the
// answer v's immediate neighbours give when v tries c.
func (r *runner) colorUsedByColoredD2Neighbor(v graph.NodeID, c int) bool {
	used := false
	r.d2.ForEachDist2(v, func(u graph.NodeID) bool {
		if r.col[u] == c {
			used = true
			return false
		}
		return true
	})
	return used
}

// beginTries starts a new synchronous round of color tries, logically
// clearing the try scratch in O(1) by advancing the generation stamp.
func (r *runner) beginTries() {
	r.curGen++
	if r.curGen == 0 {
		// uint32 wraparound: wipe the stamps so an entry written 2³² rounds
		// ago cannot alias as current.
		clear(r.tryGen)
		r.curGen = 1
	}
	r.tryList = r.tryList[:0]
}

// setTry records that v tries color c in the current round (at most one try
// per node; the last registration wins, matching the former map semantics).
func (r *runner) setTry(v graph.NodeID, c int) {
	if r.tryGen[v] != r.curGen {
		r.tryGen[v] = r.curGen
		r.tryList = append(r.tryList, v)
	}
	r.tryColor[v] = int32(c)
}

// tryOf returns the color u tries this round, or false if u is not trying.
func (r *runner) tryOf(u graph.NodeID) (int, bool) {
	if r.tryGen[u] != r.curGen {
		return 0, false
	}
	return int(r.tryColor[u]), true
}

// resolveTries applies the current round of color tries (registered via
// beginTries/setTry). A try succeeds iff no colored distance-2 neighbour
// already has the color and no other node tries the same color at distance
// at most 2 (both such tries fail, as in the trial primitive). It returns
// the nodes that became colored; the slice is reused across rounds.
func (r *runner) resolveTries() []graph.NodeID {
	colored := r.winners[:0]
	for _, v := range r.tryList {
		c, _ := r.tryOf(v)
		if c < 0 || c >= r.palette || !r.isLive(v) {
			continue
		}
		ok := true
		r.d2.ForEachDist2(v, func(u graph.NodeID) bool {
			if r.col[u] == c {
				ok = false
				return false
			}
			if other, trying := r.tryOf(u); trying && other == c {
				ok = false
				return false
			}
			return true
		})
		if ok {
			colored = append(colored, v)
		}
	}
	for _, v := range colored {
		c, _ := r.tryOf(v)
		r.col[v] = c
		r.liveLeft--
	}
	r.winners = colored
	if len(colored) > 0 {
		r.compactLive()
	}
	r.noteCompletion()
	return colored
}
