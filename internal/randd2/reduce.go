package randd2

import (
	"math"
	"slices"

	"d2color/internal/coloring"
	"d2color/internal/graph"
)

// ReduceStats reports what one call to Reduce accomplished, for the
// experiment harness and tests.
type ReduceStats struct {
	Phi            float64
	Tau            float64
	Phases         int
	QueriesSent    int
	QueriesDropped int
	Proposals      int
	NodesColored   int
	ChargedRounds  int
}

// reduce implements Algorithm Reduce(φ, τ) of Section 2.2.
//
// Precondition (not checked, per the paper it holds w.h.p. at every call
// site): live nodes have leeway less than φ. Postcondition (w.h.p. in the
// asymptotic regime): live nodes have leeway less than τ.
//
// Structure: each node selects a list Ru of ρ = C3·(φ/τ)²·log n uniformly
// random H-neighbours (Lemma 2.3 gives the O(ρ + log n)-round selection
// protocol; we charge that and draw the choices from the node's private
// randomness, which is the distribution the XOR protocol realizes). Then ρ
// phases of Reduce-Phase are run; every live node is active in a phase
// independently with probability τ/(ActiveDenominator·φ); every phase is
// charged RoundsPerReducePhase CONGEST rounds (the paper counts 23).
func (r *runner) reduce(phi, tau float64) ReduceStats {
	stats := ReduceStats{Phi: phi, Tau: tau}
	if phi < 1 {
		phi = 1
	}
	if tau < 1 {
		tau = 1
	}
	ratio := phi / tau
	rho := int(math.Ceil(r.params.C3 * ratio * ratio * log2(r.n)))
	if rho < 1 {
		rho = 1
	}
	stats.Phases = rho

	// Selection of the random H-neighbour lists Ru (Lemma 2.3).
	ru := make([][]graph.NodeID, r.n)
	for u := 0; u < r.n; u++ {
		nbrs := r.sim.hNeighbors(graph.NodeID(u))
		if len(nbrs) == 0 {
			continue
		}
		lst := make([]graph.NodeID, rho)
		for i := range lst {
			lst[i] = nbrs[r.rand[u].Intn(len(nbrs))]
		}
		ru[u] = lst
	}
	selectionRounds := rho + int(math.Ceil(log2(r.n)))
	r.charge(selectionRounds)
	stats.ChargedRounds += selectionRounds

	activeProb := tau / (r.params.ActiveDenominator * phi)
	for phase := 0; phase < rho; phase++ {
		ps := r.reducePhase(phi, activeProb, ru, phase)
		stats.QueriesSent += ps.queriesSent
		stats.QueriesDropped += ps.queriesDropped
		stats.Proposals += ps.proposals
		stats.NodesColored += ps.colored
		r.charge(r.params.RoundsPerReducePhase)
		stats.ChargedRounds += r.params.RoundsPerReducePhase
	}
	return stats
}

// phaseStats aggregates one Reduce-Phase.
type phaseStats struct {
	queriesSent    int
	queriesDropped int
	proposals      int
	colored        int
}

// query is one query travelling from a live node v through the (unique)
// intermediate node mid to the Ĥ-neighbour u (Reduce-Phase step 1). The
// priority implements the random culling of colliding queries: at every point
// where a node must keep only one of several queries it keeps the one with
// the highest priority, which is equivalent to keeping a uniformly random one
// and is exactly the mechanism described in the proof of Lemma 2.8.
type query struct {
	v        graph.NodeID
	u        graph.NodeID
	mid      graph.NodeID
	priority uint64
}

// reducePhase implements Algorithm Reduce-Phase(φ, τ) of Section 2.2.
func (r *runner) reducePhase(phi, activeProb float64, ru [][]graph.NodeID, phase int) phaseStats {
	var st phaseStats
	queryProb := 1 / (r.params.QueryDenominator * phi)

	// Step 0 (implicit): each live node decides whether it is active. The
	// slice is built in node order (the live list stays ascending) so the
	// run is deterministic per seed; the buffer is reused across phases.
	active := r.activeScratch[:0]
	for _, v := range r.live {
		if r.rand[v].Bernoulli(activeProb) {
			active = append(active, v)
		}
	}
	r.activeScratch = active
	if len(active) == 0 {
		return st
	}

	// Step 1: each active live node sends a query across each 2-path to each
	// of its Ĥ-neighbours independently with probability queryProb.
	var all []query
	for _, v := range active {
		for _, u := range r.sim.hHatNeighbors(v) {
			// Enumerate the 2-paths v–mid–u; a direct edge does not count as
			// a 2-path, matching graph.TwoPaths.
			for _, mid := range r.g.Neighbors(v) {
				if mid == u || !r.g.HasEdge(mid, u) {
					continue
				}
				if !r.rand[v].Bernoulli(queryProb) {
					continue
				}
				all = append(all, query{v: v, u: u, mid: mid, priority: r.rand[v].Uint64()})
				st.queriesSent++
			}
		}
	}
	if len(all) == 0 {
		return st
	}

	// Congestion culling after step 1: an intermediate node that receives
	// several queries keeps one (the highest priority), and so does the
	// recipient u.
	surviving := cullByKey(all, func(q query) graph.NodeID { return q.mid })
	surviving = cullByKey(surviving, func(q query) graph.NodeID { return q.u })

	// Step 2: u verifies there is only a single 2-path from v and drops the
	// query otherwise.
	verified := surviving[:0]
	for _, q := range surviving {
		if r.g.TwoPaths(q.v, q.u) == 1 {
			verified = append(verified, q)
		}
	}
	st.queriesDropped = st.queriesSent - len(verified)

	// Steps 3–5: helpers generate proposals.
	proposals := make(map[graph.NodeID][]int, len(active))
	propose := func(v graph.NodeID, color int) {
		proposals[v] = append(proposals[v], color)
		st.proposals++
	}

	// Step 4 collisions: queries forwarded to the same w collide; keep one.
	type forwarded struct {
		q query
		w graph.NodeID
	}
	var forwards []forwarded

	for _, q := range verified {
		u := q.u
		// Step 3: u picks a random colour ĉ different from its own and checks
		// whether any of its H-neighbours uses it; if not, it proposes ĉ to v.
		cHat := r.rand[u].Intn(r.palette)
		if cHat == r.col[u] {
			cHat = (cHat + 1) % r.palette
		}
		usedByHNbr := false
		for _, x := range r.sim.hNeighbors(u) {
			if r.col[x] == cHat {
				usedByHNbr = true
				break
			}
		}
		if !usedByHNbr {
			propose(q.v, cHat)
		}
		// Step 4: u forwards the query to the next random H-neighbour from Ru.
		if lst := ru[u]; len(lst) > 0 {
			forwards = append(forwards, forwarded{q: q, w: lst[phase%len(lst)]})
		}
	}

	// Cull forwarded queries colliding at the same w, then process survivors
	// in a deterministic order (sorted by w) so runs are reproducible per seed.
	byW := make(map[graph.NodeID]forwarded, len(forwards))
	for _, f := range forwards {
		if prev, ok := byW[f.w]; !ok || f.q.priority > prev.q.priority {
			byW[f.w] = f
		}
	}
	ws := make([]graph.NodeID, 0, len(byW))
	for w := range byW {
		ws = append(ws, w)
	}
	slices.Sort(ws)
	for _, w := range ws {
		f := byW[w]
		// Step 5: w checks whether v is a d2-neighbour; if not, w's own colour
		// is sent back to v as a proposal (only meaningful if w is colored).
		if r.col[w] == coloring.Uncolored {
			continue
		}
		if !r.d2.IsDist2Neighbor(w, f.q.v) {
			propose(f.q.v, r.col[w])
		}
	}

	// Step 6: every active live node with proposals tries one chosen
	// uniformly at random; simultaneous conflicting tries all fail.
	r.beginTries()
	for v, colors := range proposals {
		if !r.isLive(v) {
			continue
		}
		r.setTry(v, colors[r.rand[v].Intn(len(colors))])
	}
	st.colored = len(r.resolveTries())
	return st
}

// cullByKey keeps, for every distinct key, only the query with the highest
// priority (a uniformly random survivor, since priorities are i.i.d.).
func cullByKey(qs []query, key func(query) graph.NodeID) []query {
	best := make(map[graph.NodeID]query, len(qs))
	for _, q := range qs {
		if prev, ok := best[key(q)]; !ok || q.priority > prev.priority {
			best[key(q)] = q
		}
	}
	out := qs[:0]
	for _, q := range qs {
		if best[key(q)].priority == q.priority && best[key(q)].v == q.v && best[key(q)].u == q.u {
			out = append(out, q)
		}
	}
	return out
}
