package graph

// ResidencyEstimate is the closed-form resident-bytes estimate of simulating
// on an (n, m) graph, sized against the actual layouts of the three resident
// tiers (DESIGN §11): the CSR with its reverse edge index (4-byte offsets,
// targets and reverse slots), the CONGEST engine's message plane plus inbox
// arena (a 24-byte inline Message and 8 bytes of count/generation per
// directed edge, a 24-byte inbox header per node), and the coloring at one
// 8-byte int per node. It is shared by `graphgen -estimate` and the serving
// plane's session-cache admission budget.
type ResidencyEstimate struct {
	CSRBytes      float64 // CSR + reverse edge index
	PlaneBytes    float64 // message plane + inbox arena
	ColoringBytes float64 // one int per node
}

// Total is the sum of the three tiers.
func (e ResidencyEstimate) Total() float64 {
	return e.CSRBytes + e.PlaneBytes + e.ColoringBytes
}

// EstimateResidency computes the closed-form residency estimate for an
// (n, m)-graph simulation.
func EstimateResidency(n, m float64) ResidencyEstimate {
	slots := 2 * m
	csr := 4*(n+1) + 4*slots          // offsets + targets
	csr += 4*(n+1) + 4*slots          // edge index: slot offsets + reverse slots
	plane := (24+4+4)*slots + 4*(n+1) // inline Message + count + generation per slot
	plane += 24*slots + 24*n          // inbox arena + per-node headers
	return ResidencyEstimate{CSRBytes: csr, PlaneBytes: plane, ColoringBytes: 8 * n}
}
