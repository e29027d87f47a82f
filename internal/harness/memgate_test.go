package harness

import (
	"os"
	"testing"
)

// memoryEnvelope is the recorded bytes-per-node ceiling at n = 10⁶ (sparse
// GNP, average degree 8, packed colorings, inline engine) that the
// D2_MEMORY_GATE CI job enforces. The measured figures after the ISSUE 7
// memory diet are ~50 B/node (greedy: resident CSR + packed output +
// transient scratch) and ~730 B/node (relaxed: CSR + the 24-byte message
// plane, the inbox arena, the trial kernel and the sorted known-colors
// tier), down from 1551 B/node before the diet. The envelopes leave
// headroom for allocator and GC variation across machines while still
// locking in well over the 35% reduction the issue demanded (≤ ~1008
// B/node for relaxed).
var memoryEnvelope = map[string]float64{
	"greedy":  96,
	"relaxed": 900,
}

// TestMemoryEnvelopeAtMillion is the memory regression gate: opt-in via
// D2_MEMORY_GATE=1 (the reading needs a quiet machine and a Linux /proc, so
// ordinary test sweeps skip it; the CI job owns its runner and a regression
// fails the build). It runs the standard n = 10⁶ probe and compares each
// algorithm's peak resident bytes per node against the recorded envelope.
func TestMemoryEnvelopeAtMillion(t *testing.T) {
	if os.Getenv("D2_MEMORY_GATE") != "1" {
		t.Skip("memory gate is opt-in: set D2_MEMORY_GATE=1 (CI memory job)")
	}
	probes, reliable, err := RunMemoryProbe(1_000_000, 1, []string{"greedy", "relaxed"})
	if err != nil {
		t.Fatal(err)
	}
	if !reliable {
		t.Skip("platform does not allow resetting VmHWM; per-algorithm readings would be monotone")
	}
	for _, p := range probes {
		limit := memoryEnvelope[p.Algorithm]
		t.Logf("%s: peak %.0f MiB over n=%d m=%d → %.0f B/node (envelope %.0f)",
			p.Algorithm, p.PeakRSSMiB, p.N, p.M, p.BytesPerNode, limit)
		if p.BytesPerNode > limit {
			t.Errorf("%s regressed: %.0f resident bytes per node exceeds the recorded envelope of %.0f",
				p.Algorithm, p.BytesPerNode, limit)
		}
	}
}
