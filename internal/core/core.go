// Package core links every algorithm package of the repository into the alg
// registry. It declares nothing: importing it (usually blank) is the one way
// a binary or a test says "every algorithm", after which alg.Get, alg.Names
// and alg.All see the full set — the paper's randomized Δ²+1 coloring
// (Theorem 1.1, rand-improved and rand-basic), its deterministic Δ²+1
// coloring (Theorem 1.2, deterministic), its (1+ε)Δ² coloring (Theorem 1.3,
// polylog) and the baselines (greedy, naive, relaxed). Every one of them
// returns a distance-2 coloring.
package core

import (
	_ "d2color/internal/baseline"
	_ "d2color/internal/detd2"
	_ "d2color/internal/polylogd2"
	_ "d2color/internal/randd2"
)
