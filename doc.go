// Package d2color is a from-scratch Go reproduction of "Distance-2 Coloring
// in the CONGEST Model" (Halldórsson, Kuhn, Maus; PODC 2020).
//
// The library implements the paper's randomized O(log Δ · log n)-round and
// deterministic O(Δ² + log* n)-round distance-2 coloring algorithms with
// Δ²+1 colors, the deterministic polylogarithmic-time (1+ε)Δ² coloring, every
// substrate they rely on (a CONGEST simulator, similarity graphs, local
// refinement splitting, network decomposition, Linial / locally-iterative /
// color-reduction pipelines), the baselines they are compared against, and an
// experiment harness that regenerates a table for every quantitative claim.
//
// Entry points:
//
//   - internal/alg — the registry: alg.MustGet(name).Run(g, engine, seed)
//     runs any algorithm on a graph and returns its self-checked coloring
//     plus CONGEST cost metrics (a blank import of internal/core links every
//     algorithm into it);
//   - cmd/d2color — command-line front end for one-off runs;
//   - cmd/experiments — regenerate the experiment tables (EXPERIMENTS.md);
//   - examples/ — runnable walkthroughs (quickstart, wireless frequency
//     assignment, hypergraph strong coloring, algorithm comparison).
//
// See README.md for an overview, DESIGN.md for the system inventory and
// fidelity notes, and EXPERIMENTS.md for the paper-vs-measured record.
package d2color
