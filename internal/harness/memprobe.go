package harness

import (
	"fmt"
	"runtime/debug"

	"d2color/internal/alg"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

// MemoryProbe is one algorithm's measured memory footprint on the standard
// scale workload: the peak resident set (VmHWM) covering the resident CSR
// graph plus the algorithm's kernel, coloring and scratch, normalized to
// bytes per node. It is the number the ISSUE 7 memory diet is judged by —
// cmd/bench persists it into BENCH_<pr>.json and the D2_MEMORY_GATE CI job
// fails the build when it regresses past the recorded envelope.
type MemoryProbe struct {
	Algorithm    string  `json:"algorithm"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	PeakRSSMiB   float64 `json:"peakRSSMiB"`
	BytesPerNode float64 `json:"bytesPerNode"`
}

// RunMemoryProbe builds the standard scale workload (sparse GNP at average
// degree 8) once and runs each named registry algorithm on it with
// bit-packed output on the inline engine, reporting per-run peak RSS.
// Before each run the heap is scavenged back to the OS and the VmHWM
// high-water mark reset, so a probe covers the shared resident graph plus
// that algorithm alone. reliable is false when the platform does not allow
// resetting VmHWM (non-Linux, locked-down /proc): the readings are then
// monotone across probes and unfit for a regression gate.
//
// Every probe's coloring is re-verified distance-2 valid so a future
// "optimization" cannot trade correctness for residency unnoticed.
func RunMemoryProbe(n int, seed uint64, algNames []string) (probes []MemoryProbe, reliable bool, err error) {
	g := graph.GNPWithAverageDegree(n, 8, int64(seed)+int64(n))
	reliable = true
	for _, name := range algNames {
		a, ok := alg.Get(name)
		if !ok {
			return nil, false, fmt.Errorf("memory probe: algorithm %q is not registered", name)
		}
		debug.FreeOSMemory()
		reliable = resetPeakRSS() && reliable
		res, err := a.Run(g, alg.Engine{PackedColors: true}, seed)
		if err != nil {
			return nil, false, fmt.Errorf("memory probe %s: %w", name, err)
		}
		rss := peakRSSMB()
		if res.Packed == nil {
			return nil, false, fmt.Errorf("memory probe %s: no packed coloring produced", name)
		}
		if verr := verify.CheckD2Packed(g, res.Packed, res.PaletteSize).Error(); verr != nil {
			return nil, false, fmt.Errorf("memory probe %s: invalid coloring: %w", name, verr)
		}
		probes = append(probes, MemoryProbe{
			Algorithm:    name,
			N:            g.NumNodes(),
			M:            g.NumEdges(),
			PeakRSSMiB:   rss,
			BytesPerNode: rss * 1024 * 1024 / float64(g.NumNodes()),
		})
	}
	return probes, reliable, nil
}
