package trial

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"d2color/internal/graph"
)

// TestCancelMidRunLeavesRunnerByteIdentical pins the cancellation safety
// contract at the kernel level: a run stopped mid-flight by Config.Cancel
// returns ErrCanceled with a usable partial Result, and — the part the
// serving plane's warm-session reuse depends on — leaves the runner in a
// state where the next run is byte-identical to the same run on a fresh
// kernel. Checked inline and on a worker team.
func TestCancelMidRunLeavesRunnerByteIdentical(t *testing.T) {
	g := graph.GNPWithAverageDegree(3_000, 10, 9)
	delta := g.MaxDegree()
	cfg := Config{PaletteSize: delta*delta + 1, Scope: ScopeDistance2, Seed: 7}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fresh, err := Run(g, cfg) // inline reference
			if err != nil {
				t.Fatal(err)
			}

			r := NewRunner(g, false, workers)
			defer r.Close()
			first, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Trip the hook after a couple of polls: the engine polls between
			// rounds, so this cancels genuinely mid-run.
			var polls atomic.Int64
			ccfg := cfg
			ccfg.Seed = 8
			ccfg.Cancel = func() bool { return polls.Add(1) > 2 }
			partial, err := r.Run(ccfg)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled run: got %v, want ErrCanceled", err)
			}
			if !partial.Canceled {
				t.Error("Result.Canceled not set on a canceled run")
			}
			if partial.Complete {
				t.Error("a run canceled after 2 polls cannot be complete at n=3000")
			}
			if len(partial.Coloring) != g.NumNodes() {
				t.Errorf("partial result has %d colors, want %d", len(partial.Coloring), g.NumNodes())
			}

			// The interrupted kernel must replay the original run exactly.
			again, err := r.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for who, want := range map[string]Result{"pre-cancel run": first, "fresh kernel": fresh} {
				if again.Phases != want.Phases || again.Metrics != want.Metrics {
					t.Errorf("post-cancel rerun vs %s: phases/metrics differ: (%d,%v) vs (%d,%v)",
						who, again.Phases, again.Metrics, want.Phases, want.Metrics)
				}
				for v := range want.Coloring {
					if again.Coloring[v] != want.Coloring[v] {
						t.Fatalf("post-cancel rerun vs %s: node %d colored %d, want %d",
							who, v, again.Coloring[v], want.Coloring[v])
					}
				}
			}
		})
	}
}

// BenchmarkCancelLatency measures the cancellation latency the serving
// plane's deadline and drain paths rely on: the time from the cancel flag
// flipping to RunPhases unwinding, on an in-flight n = 50k run. The claim is
// O(one round) — the engine polls the hook between rounds — so the op cost
// is a fraction of one phase, independent of the remaining phase budget.
func BenchmarkCancelLatency(b *testing.B) {
	g := graph.GNPWithAverageDegree(50_000, 8, 1)
	r := NewRunner(g, false, 0)
	defer r.Close()
	var stop atomic.Bool
	delta := g.MaxDegree()
	cfg := Config{PaletteSize: delta*delta + 1, Scope: ScopeDistance2, Seed: 1,
		Picker: conflictPicker, // never completes: cancel is the only exit
		Cancel: stop.Load}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stop.Store(false)
		if err := r.Start(cfg); err != nil {
			b.Fatal(err)
		}
		r.Phase() // in flight: plane buckets and inboxes at steady state
		b.StartTimer()
		stop.Store(true)
		if err := r.RunPhases(); !errors.Is(err, ErrCanceled) {
			b.Fatalf("got %v, want ErrCanceled", err)
		}
	}
}
