package randd2

import (
	"slices"

	"d2color/internal/graph"
	"d2color/internal/rng"
)

// similarity holds the similarity graphs H = H_{2/3} and Ĥ = H_{5/6} of
// Section 2.3: two d2-neighbours are H_{1-1/k}-adjacent when they share at
// least (1-1/k)·Δ² common d2-neighbours. H decides which colored nodes may
// assist which live nodes in Reduce-Phase; Ĥ (the stricter graph) decides
// which nodes a live node queries.
type similarity struct {
	h      [][]graph.NodeID // adjacency lists of H, indexed by node
	hHat   [][]graph.NodeID // adjacency lists of Ĥ
	rounds int              // CONGEST rounds charged for the construction
}

// hNeighbors returns the H-neighbour list of v.
func (s *similarity) hNeighbors(v graph.NodeID) []graph.NodeID { return s.h[v] }

// hHatNeighbors returns the Ĥ-neighbour list of v.
func (s *similarity) hHatNeighbors(v graph.NodeID) []graph.NodeID { return s.hHat[v] }

// hDegree returns deg_H(v).
func (s *similarity) hDegree(v graph.NodeID) int { return len(s.h[v]) }

// isHNeighbor reports whether u is an H-neighbour of v.
func (s *similarity) isHNeighbor(v, u graph.NodeID) bool {
	_, found := slices.BinarySearch(s.h[v], u)
	return found
}

// buildSimilarity constructs H and Ĥ.
//
// When p.ExactSimilarity is set (or Δ² = O(log n), where the paper gathers
// whole neighbourhoods directly), the exact common-d2-neighbour counts are
// used. Otherwise the sampling protocol of Section 2.3 is followed: every
// node enters a sample S independently with probability c10·log n / Δ²; each
// node learns the sampled nodes in its d2-neighbourhood (Sv); two
// d2-neighbours are declared H_{1-1/k}-adjacent when |Su ∩ Sv| is at least a
// (1 − 1/(2k)) fraction of the expected sample size (Theorem 2.2).
//
// Round charge: the sampling, the O(log n)-size set exchange and the
// pipelined comparison all fit in O(log n) rounds (Section 2.3); the exact
// variant for Δ² = O(log n) also costs O(log n) rounds.
//
// Implementation: a pair can share no more than the smaller of its two sets
// (Sv, or N²(v) on the exact path), and the qualifying test is monotone in
// the shared count, so a node whose own set is below the weaker of the two
// thresholds has no H- or Ĥ-edge at all; such nodes are skipped before any
// of their pairs is looked at (DESIGN.md §16). The exact common-neighbour
// counts |N²(u) ∩ N²(v)| are taken against a pooled MarkSet holding N²(v),
// so no square adjacency and no per-pair sets are ever allocated.
func buildSimilarity(g *graph.Graph, d2v *graph.Dist2View, delta int, p Params, seed uint64) *similarity {
	n := g.NumNodes()
	s := &similarity{
		h:    make([][]graph.NodeID, n),
		hHat: make([][]graph.NodeID, n),
	}
	logN := log2(n)
	d2 := delta * delta
	s.rounds = int(2*logN) + 2 // Section 2.3: O(log n) rounds, constant 2 for the exchange + comparison

	if d2 == 0 {
		return s
	}

	useExact := p.ExactSimilarity || float64(d2) <= p.C10*logN

	// Thresholds per Theorem 2.2: H_{1-1/k} requires a (1 − 1/(2k)) fraction
	// of the reference quantity (Δ² exactly, or the expected sample size).
	kH := 1 / (1 - p.SimilarityH)      // k = 3 for H_{2/3}
	kHat := 1 / (1 - p.SimilarityHHat) // k = 6 for H_{5/6}
	fracH := 1 - 1/(2*kH)              // 5/6 of the sample for H
	fracHat := 1 - 1/(2*kHat)          // 11/12 of the sample for Ĥ
	if useExact {
		// With exact counts the thresholds are the definitional fractions.
		fracH = p.SimilarityH
		fracHat = p.SimilarityHHat
	}
	// A node whose set size k gives k/denom below minFrac shares too little
	// with anyone to enter H or Ĥ. Validate makes minFrac = fracH.
	minFrac := min(fracH, fracHat)

	// nbrsV is the caller-owned materialization of N²(v) (the view's stream
	// cannot be nested inside itself); |N²(v)| ≤ Δ², so it never grows.
	nbrsV := make([]graph.NodeID, 0, d2)
	// inV marks N²(v) while the exact path streams N²(u).
	var inV *graph.MarkSet
	var samples sampleSets
	denom := float64(d2)
	if useExact {
		inV = graph.NewMarkSet(n)
	} else {
		prob := min(p.C10*logN/float64(d2), 1)
		samples = drawSamples(d2v, prob, seed, nbrsV)
		denom = prob * float64(d2) // the expected sample size
	}
	if !(denom > 0) {
		return s
	}

	for v := 0; v < n; v++ {
		if !useExact && float64(len(samples.of(graph.NodeID(v))))/denom < minFrac {
			continue
		}
		nbrsV = d2v.AppendDist2(nbrsV[:0], graph.NodeID(v))
		if useExact {
			if float64(len(nbrsV))/denom < minFrac {
				continue
			}
			inV.Reset()
			for _, u := range nbrsV {
				inV.Add(u)
			}
		}
		for _, u := range nbrsV {
			if u <= graph.NodeID(v) {
				continue
			}
			var count int
			if useExact {
				// |N²(u) ∩ N²(v)| streamed against the mark set (v itself is
				// never marked, matching the set semantics of N²(v)).
				d2v.ForEachDist2(u, func(w graph.NodeID) bool {
					if inV.Contains(w) {
						count++
					}
					return true
				})
			} else {
				su := samples.of(u)
				if float64(len(su))/denom < minFrac {
					continue
				}
				count = commonSortedCount(su, samples.of(graph.NodeID(v)))
			}
			frac := float64(count) / denom
			if frac >= fracH {
				s.h[v] = append(s.h[v], u)
				s.h[u] = append(s.h[u], graph.NodeID(v))
			}
			if frac >= fracHat {
				s.hHat[v] = append(s.hHat[v], u)
				s.hHat[u] = append(s.hHat[u], graph.NodeID(v))
			}
		}
	}
	for v := 0; v < n; v++ {
		slices.Sort(s.h[v])
		slices.Sort(s.hHat[v])
	}
	return s
}

// sampleSets holds Sv = S ∩ N²(v) for every node v in CSR form: Sv is
// flat[offsets[v]:offsets[v+1]], in ascending order.
type sampleSets struct {
	offsets []int
	flat    []graph.NodeID
}

// of returns Sv.
func (s sampleSets) of(v graph.NodeID) []graph.NodeID {
	return s.flat[s.offsets[v]:s.offsets[v+1]]
}

// drawSamples flips one coin per node, in node order, from the stream
// Split(seed, 0x51A11) to draw S, and returns every Sv. Distance-2 adjacency
// is symmetric, so Sv = {w ∈ S : v ∈ N²(w)}: only the sampled nodes' N²(w)
// are streamed, once to size the sets and once to fill them, and taking w in
// ascending order leaves every Sv sorted. buf is a reusable buffer.
func drawSamples(d2v *graph.Dist2View, prob float64, seed uint64, buf []graph.NodeID) sampleSets {
	n := d2v.NumNodes()
	var src rng.Source
	src.ResetSplit(seed, 0x51A11)
	inSample := make([]bool, n)
	for w := range inSample {
		inSample[w] = src.Bernoulli(prob)
	}
	s := sampleSets{offsets: make([]int, n+1)}
	for w := 0; w < n; w++ {
		if inSample[w] {
			buf = d2v.AppendDist2(buf[:0], graph.NodeID(w))
			for _, v := range buf {
				s.offsets[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		s.offsets[v+1] += s.offsets[v]
	}
	s.flat = make([]graph.NodeID, s.offsets[n])
	next := slices.Clone(s.offsets[:n])
	for w := 0; w < n; w++ {
		if inSample[w] {
			buf = d2v.AppendDist2(buf[:0], graph.NodeID(w))
			for _, v := range buf {
				s.flat[next[v]] = graph.NodeID(w)
				next[v]++
			}
		}
	}
	return s
}

// commonSortedCount returns |a ∩ b| for sorted slices.
func commonSortedCount(a, b []graph.NodeID) int {
	i, j, count := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}
