package trial

import (
	"testing"

	"d2color/internal/graph"
)

// BenchmarkTrialPhaseScale1M measures one warmed-up full-traffic trial phase
// at the million-node scale of experiment E11. Excluded from the pinned CI
// set; run manually to reproduce the README scale table.
func BenchmarkTrialPhaseScale1M(b *testing.B) {
	g := graph.GNPWithAverageDegree(1_000_000, 8, 42)
	r := NewRunner(g, false, 0)
	if err := r.Start(fullTrafficConfig(1)); err != nil {
		b.Fatal(err)
	}
	r.Phase() // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Phase()
	}
}
