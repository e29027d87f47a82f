package harness

import (
	"fmt"
	"time"

	"d2color/internal/serve"
)

// runE13 is the serving-plane experiment: the four standard closed-loop load
// mixes of cmd/d2load — {many-small-graphs, one-huge-graph} × {query-heavy,
// churn-heavy} — replayed against the warm-session server, plus an unbatched
// control twin of the coalescing-friendly query mix. Each row is one mix:
// request percentiles at the transport boundary, sustained request and
// coloring throughput, and the server-side batching/eviction counters.
//
// The request schedules are deterministic per (mix, seed) — two runs issue
// byte-identical request sequences — but every measured column is wall-clock
// derived, so the experiment is registered Volatile like E11/E12. The
// structural claims (batching coalesces, eviction happens under the sized
// budget, no request errors) are asserted by the smoke test rather than by
// table bytes.
func runE13(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Coloring as a service: latency and throughput under closed-loop load",
		Claim: "ROADMAP serving item: warm sessions with batched dispatch serve query-heavy mixes with bounded tails, and batching beats unbatched dispatch where requests coalesce",
		Columns: []string{"mix", "sessions", "graph", "requests", "conc", "batch",
			"p50 ms", "p95 ms", "p99 ms", "req/s", "colorings/s", "coalesced", "evict", "reopens"},
	}
	start := time.Now()

	specs := serve.StandardMixes(cfg.Quick)
	// The unbatched twin of the coalescing-friendly mix, so the batching win
	// is two adjacent rows of the same table.
	for _, spec := range specs {
		if spec.Mix == "many-small/query" {
			twin := spec
			twin.Mix = spec.Mix + "/unbatched"
			twin.Unbatched = true
			specs = append(specs, twin)
			break
		}
	}
	for _, spec := range specs {
		if spec.Seed == 0 {
			spec.Seed = cfg.Seed
		}
		spec.Workers = cfg.engineWorkers()
		rep, err := serve.RunLoad(spec)
		if err != nil {
			return nil, fmt.Errorf("E13 %s: %w", spec.Mix, err)
		}
		if rep.Errors > 0 {
			return nil, fmt.Errorf("E13 %s: %d request errors", spec.Mix, rep.Errors)
		}
		ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
		t.AddRow(rep.Mix, itoa(rep.Sessions), fmt.Sprintf("%s(n=%d)", spec.Family, spec.N),
			itoa(rep.Requests), itoa(rep.Concurrency), fmt.Sprintf("%.1f", rep.MeanBatch),
			ms(rep.P50), ms(rep.P95), ms(rep.P99),
			fmt.Sprintf("%.0f", rep.RequestsPerSec), fmt.Sprintf("%.1f", rep.ColoringsPerSec),
			fmt.Sprintf("%d", rep.Coalesced), fmt.Sprintf("%d", rep.Evictions), itoa(rep.Reopens))
	}

	t.Elapsed = time.Since(start)
	t.AddNote("closed loop: each of conc workers issues its next request only after the previous response; latency is measured per request at the transport boundary")
	t.AddNote("the many-small mixes run under a resident budget of ~70%% of the session population, so LRU eviction and client-side reopens (the cache-miss cold path, included in the latency) are part of the distribution")
	t.AddNote("batch = mean requests per dispatch window; coalesced counts requests answered from a window's memo instead of a kernel pass; the /unbatched row is the control arm with the window disabled")
	t.AddNote("request schedules are deterministic per (mix, seed); every measured column is wall-clock derived, so the experiment is Volatile and excluded from byte-identity checks")
	return t, nil
}
