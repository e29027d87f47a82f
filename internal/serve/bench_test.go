package serve

import (
	"sync"
	"testing"
	"time"

	"d2color/internal/graph"
)

// BenchmarkWarmVerifyRequest measures one warm full verify round-trip
// through the client: the session is marked stale and its hash void before
// every request, so each one runs the whole CheckD2 plus a full rehash —
// the path every verify took before the certified recheck, and the one the
// verify after a failed mutation still takes. Allocations must report 0.
func BenchmarkWarmVerifyRequest(b *testing.B) { benchWarmVerify(b, true) }

// BenchmarkWarmVerifyRequestUnchanged measures a warm verify of a coloring
// nothing changed since the last pass: the certified O(1) answer plus the
// cached hash. Allocations must report 0.
func BenchmarkWarmVerifyRequestUnchanged(b *testing.B) { benchWarmVerify(b, false) }

func benchWarmVerify(b *testing.B, stale bool) {
	srv := NewServer(Options{})
	defer srv.Close()
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 10000, P: 8, Seed: 3}
	cl := srv.NewClient()
	var resp Response
	if err := cl.Do(&Request{Op: OpOpen, Session: "g", Spec: &spec}, &resp); err != nil {
		b.Fatal(err)
	}
	if err := cl.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 5}, &resp); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Do(&Request{Op: OpVerify, Session: "g"}, &resp); err != nil {
			b.Fatal(err)
		}
	}
	ses := sessionState(b, srv, "g")
	req := Request{Op: OpVerify, Session: "g"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Between requests the worker is idle; the request's hand-off
		// orders this write before its read.
		ses.stale, ses.hashed = stale, !stale
		if err := cl.Do(&req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRecolorRequest measures one warm explicit-dirty recolor
// round-trip on a default server — the steady-state churn path.
// Allocations must report 0.
func BenchmarkWarmRecolorRequest(b *testing.B) {
	srv := NewServer(Options{})
	defer srv.Close()
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 10000, P: 8, Seed: 3}
	cl := srv.NewClient()
	var resp Response
	if err := cl.Do(&Request{Op: OpOpen, Session: "g", Spec: &spec}, &resp); err != nil {
		b.Fatal(err)
	}
	if err := cl.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 5}, &resp); err != nil {
		b.Fatal(err)
	}
	dirty := []graph.NodeID{10, 1000, 3000, 5000, 7000, 9000}
	for i := 0; i < 3; i++ {
		if err := cl.Do(&Request{Op: OpRecolor, Session: "g", Dirty: dirty, Seed: uint64(20 + i)}, &resp); err != nil {
			b.Fatal(err)
		}
	}
	req := Request{Op: OpRecolor, Session: "g", Dirty: dirty, Seed: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed++
		if err := cl.Do(&req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmCorruptRecolorRequest measures one warm fault-injection
// recolor round-trip on the perfbench serve-churn shape: a default
// server, one gnp-avg session with n = 10⁵ and average degree 8, and 16
// corrupted colors per request. Such an epoch costs O(ball + n/256): a
// scan-free victim draw, a repair confined to the ball, and a rehash of
// the victims' 256-node blocks.
func BenchmarkWarmCorruptRecolorRequest(b *testing.B) {
	srv := NewServer(Options{})
	defer srv.Close()
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 100_000, P: 8, Seed: 3}
	cl := srv.NewClient()
	var resp Response
	if err := cl.Do(&Request{Op: OpOpen, Session: "g", Spec: &spec}, &resp); err != nil {
		b.Fatal(err)
	}
	if err := cl.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 5}, &resp); err != nil {
		b.Fatal(err)
	}
	req := Request{Op: OpRecolor, Session: "g", Corrupt: 16, Seed: 100}
	for i := 0; i < 3; i++ {
		req.Seed++
		if err := cl.Do(&req, &resp); err != nil || !resp.Complete {
			b.Fatalf("warm-up recolor: complete=%v err=%v", resp.Complete, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed++
		if err := cl.Do(&req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColorQuery drives one fixed same-session query block — 8 workers each
// issuing 16 same-(algorithm, seed) color requests plus verifies — per
// benchmark iteration, and reports requests/sec. With batching on, queued
// same-window requests coalesce onto one kernel pass; the unbatched twin
// below is the control arm. cmd/bench runs these with benchtime=1x, so the
// whole block is the measured unit.
func benchColorQuery(b *testing.B, unbatched bool) {
	srv := NewServer(Options{Unbatched: unbatched})
	defer srv.Close()
	spec := graph.GeneratorSpec{Kind: "ba", N: 600, Degree: 3, Seed: 2}
	var resp Response
	if err := srv.Do(&Request{Op: OpOpen, Session: "g", Spec: &spec}, &resp); err != nil {
		b.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 7}, &resp); err != nil {
		b.Fatal(err)
	}
	const workers = 8
	const perWorker = 16
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl := srv.NewClient()
				var r Response
				for j := 0; j < perWorker; j++ {
					var err error
					if j%4 == 3 {
						err = cl.Do(&Request{Op: OpVerify, Session: "g"}, &r)
					} else {
						err = cl.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 7}, &r)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	b.StopTimer()
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*workers*perWorker)/elapsed.Seconds(), "req/s")
	}
}

// BenchmarkServeColorQueryBatched is the batched arm of the same-session
// query-heavy throughput comparison.
func BenchmarkServeColorQueryBatched(b *testing.B) { benchColorQuery(b, false) }

// BenchmarkServeColorQueryUnbatched is the control arm: one request per
// worker wakeup, no coalescing.
func BenchmarkServeColorQueryUnbatched(b *testing.B) { benchColorQuery(b, true) }
