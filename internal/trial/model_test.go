package trial

import (
	"fmt"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/rng"
)

// TestTrialProtocolStaysInsideModel: the trial protocol sends at most one
// one-word message over a directed edge per round — the CONGEST bound the
// engine accounts against — on the registry golden's six families, at both
// scopes, with and without preloaded Initial colors and ExtraKnown lists,
// inline and on a worker team.
func TestTrialProtocolStaysInsideModel(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPWithAverageDegree(96, 8, 3)},
		{"unitdisk", graph.UnitDisk(90, 0.16, 5)},
		{"grid", graph.Grid(9, 9)},
		{"cliquechain", graph.CliqueChain(4, 5, 0)},
		{"star", graph.Star(24)},
		{"regular", graph.RandomRegular(80, 6, 7)},
	}
	for _, fam := range families {
		n, delta := fam.g.NumNodes(), fam.g.MaxDegree()
		src := rng.Split(5, uint64(n))
		for _, scope := range []Scope{ScopeDistance1, ScopeDistance2} {
			palette := delta + 1
			if scope == ScopeDistance2 {
				palette = delta*delta + 1
			}
			initial := coloring.New(n)
			extra := make([][]int32, n)
			for v := 0; v < n; v++ {
				if v%3 == 0 {
					initial[v] = src.Intn(palette)
				}
				for k := src.Intn(3); k > 0; k-- {
					extra[v] = append(extra[v], int32(src.Intn(palette)))
				}
			}
			configs := []Config{
				{PaletteSize: palette, Scope: scope, Seed: 1},
				{PaletteSize: palette, Scope: scope, Seed: 2, AvoidKnownUsed: true},
				{PaletteSize: palette + 2, Scope: scope, Seed: 3, Initial: initial, PreloadInitial: true},
				{PaletteSize: palette + 2, Scope: scope, Seed: 4, Initial: initial, ExtraKnown: extra},
			}
			for ci, cfg := range configs {
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					name := fmt.Sprintf("%s/scope=%d/config=%d/workers=%d", fam.name, scope, ci, workers)
					res, err := Run(fam.g, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					m := res.Metrics
					if m.MessagesSent == 0 {
						t.Fatalf("%s: no messages sent", name)
					}
					if m.MaxEdgeWordsPerRound > 1 || m.BandwidthViolations != 0 || m.WordsSent != m.MessagesSent {
						t.Errorf("%s: outside the one-word-per-edge bound: %v", name, m)
					}
				}
			}
		}
	}
}
