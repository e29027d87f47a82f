package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one request share its id; parent names the span that
// caused this one ("" for a root).
type span struct {
	id     uint64
	name   string
	parent string
	start  time.Time
	end    time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(id uint64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id, name, parent, start, end})
	t.mu.Unlock()
}

// byName returns, per span name, the spans keyed by request id.
func (t *tracer) byName() map[string]map[uint64]span {
	out := map[string]map[uint64]span{}
	for _, s := range t.spans {
		m := out[s.name]
		if m == nil {
			m = map[uint64]span{}
			out[s.name] = m
		}
		m[s.id] = s
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID      uint64 `json:"id"`
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, s := range t.spans {
		enc.Encode(rec{s.id, s.name, s.parent, s.start.Sub(t.epoch).Nanoseconds(), s.end.Sub(t.epoch).Nanoseconds()})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// residualLimitPct is the stated tolerance within which an op kind's layer
// self times must sum to its traced end-to-end median.
const residualLimitPct = 10.0

// opTable is one op kind's row block of the layer table: the end-to-end
// medians with tracing off and on, and each layer's median self time.
type opTable struct {
	kind     string
	untraced samples
	traced   samples
	layers   []layerRow
}

type layerRow struct {
	layer string
	self  samples
}

func (t opTable) sum() float64 {
	var s float64
	for _, l := range t.layers {
		s += l.self.quantile(0.5)
	}
	return s
}

// residualPct is how far the layers' median self times miss the traced
// end-to-end median, as a share of it.
func (t opTable) residualPct() float64 {
	e := t.traced.quantile(0.5)
	return (e - t.sum()) / e * 100
}

// overheadMs is the tracing overhead: traced minus untraced median.
func (t opTable) overheadMs() float64 {
	return t.traced.quantile(0.5) - t.untraced.quantile(0.5)
}

// render prints the block.
func (t opTable) render() []string {
	e := t.traced.quantile(0.5)
	lines := []string{
		fmt.Sprintf("  op %-10s end-to-end p50 %.4f ms traced (n=%d), %.4f ms untraced (n=%d); tracing overhead %+.4f ms (%+.1f%%)",
			t.kind, e, len(t.traced), t.untraced.quantile(0.5), len(t.untraced), t.overheadMs(), t.overheadMs()/t.untraced.quantile(0.5)*100),
	}
	for _, l := range t.layers {
		p := l.self.quantile(0.5)
		lines = append(lines, fmt.Sprintf("    %-22s self p50 %10.4f ms  %5.1f%%  (n=%d)", l.layer, p, p/e*100, len(l.self)))
	}
	verdict := "within"
	if math.Abs(t.residualPct()) > residualLimitPct {
		verdict = "OUTSIDE"
	}
	lines = append(lines, fmt.Sprintf("    %-22s sum      %10.4f ms; residual %+.2f%% (%s the stated ±%.0f%%)",
		"layers", t.sum(), t.residualPct(), verdict, residualLimitPct))
	return lines
}

// tableSummary folds the op blocks into the two per-layer metrics that
// describe the table itself: the largest absolute residual, and the tracing
// overhead as the summed traced medians over the summed untraced ones.
func tableSummary(tables []opTable) (residual, overhead float64) {
	var tracedSum, untracedSum float64
	for _, t := range tables {
		if r := math.Abs(t.residualPct()); r > residual {
			residual = r
		}
		tracedSum += t.traced.quantile(0.5)
		untracedSum += t.untraced.quantile(0.5)
	}
	return residual, (tracedSum - untracedSum) / untracedSum * 100
}

// layerInputs is what a traced run measured, folded into the per-layer
// metrics every workload reports.
type layerInputs struct {
	generate, build, check samples
	// kernelMs and frameMs split the mean op: time inside the library
	// kernels, and the rest (loop, serve, http, client).
	kernelMs, frameMs float64
	ops               int
	residualPct       float64
	overheadPct       float64
	congest           congestSum
	mem               memDelta
	memOps            int
}

func layerMetrics(in layerInputs) []metric {
	cs := in.congest
	return []metric{
		{name: "graph.generate_ms", value: in.generate.quantile(0.5), unit: "ms", samples: len(in.generate), meaning: "GeneratorSpec.Generate of a workload graph, p50"},
		{name: "trial.build_ms", value: in.build.quantile(0.5), unit: "ms", samples: len(in.build), meaning: "trial.NewRunner on a workload graph, p50"},
		{name: "verify.check_ms", value: in.check.quantile(0.5), unit: "ms", samples: len(in.check), meaning: "verify.Checker.CheckD2, p50"},
		{name: "kernel.self_ms", value: in.kernelMs, unit: "ms", samples: in.ops, meaning: "mean per op inside alg.Run / CheckD2 / repair"},
		{name: "frame.self_ms", value: in.frameMs, unit: "ms", samples: in.ops, meaning: "mean per op outside the kernels"},
		{name: "layers.residual_pct", value: in.residualPct, unit: "%", samples: in.ops, meaning: "largest |end-to-end p50 - sum of layer p50s| of the table"},
		{name: "trace.overhead_pct", value: in.overheadPct, unit: "%", samples: in.ops, meaning: "traced over untraced end-to-end p50s"},
		{name: "congest.rounds", value: cs.mean(cs.rounds), unit: "count", samples: cs.ops, meaning: "simulated rounds per op that runs the engine"},
		{name: "congest.messages", value: cs.mean(cs.messages), unit: "count", samples: cs.ops, meaning: "messages per op that runs the engine"},
		{name: "congest.words", value: cs.mean(cs.words), unit: "count", samples: cs.ops, meaning: "words per op that runs the engine"},
		{name: "runtime.alloc_mib_per_op", value: float64(in.mem.allocBytes) / (1 << 20) / float64(in.memOps), unit: "MiB", samples: in.memOps, meaning: "heap allocated per op, untraced phase"},
		{name: "runtime.gc_cycles", value: float64(in.mem.gcCycles), unit: "count", samples: in.memOps, meaning: "GC cycles in the untraced phase"},
		{name: "runtime.gc_pause_ms", value: ms(in.mem.gcPause), unit: "ms", samples: in.memOps, meaning: "GC pause total in the untraced phase"},
	}
}
