package serve

import (
	"testing"

	"d2color/internal/graph"
)

// TestServeWarmRequestAllocFree enforces the zero-alloc steady-state claim
// with the same teeth as the trial plane's TestTrialPhaseAllocFree: once a
// session is warm, a verify request — the certified answer for an unchanged
// coloring, and the full CheckD2 plus full rehash of a session a failed
// mutation left stale — and an explicit-dirty recolor request followed by a
// verify (the certified recheck of the repaired nodes) allocate nothing —
// not in the dispatch path, not in the kernels, where the repair session
// rebinds its kept kernel to each epoch's subgraph.
// testing.Benchmark measures the whole request round-trip through
// the client, so a regression anywhere in the hot path fails this test.
// The subtest is named for the local (ball-confined) repair path the
// recolor requests run on.
func TestServeWarmRequestAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5k-node session")
	}
	t.Run("local", testWarmRequestAllocFree)
}

func testWarmRequestAllocFree(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 5000, P: 8, Seed: 3}
	cl := srv.NewClient()
	var resp Response
	if err := cl.Do(&Request{Op: OpOpen, Session: "g", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := cl.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 5}, &resp); err != nil {
		t.Fatal(err)
	}
	dirty := []graph.NodeID{10, 500, 1500, 2500, 3500, 4500}

	// Warm every lazy path: checker, repair session, scratch buffers.
	for i := 0; i < 3; i++ {
		if err := cl.Do(&Request{Op: OpVerify, Session: "g"}, &resp); err != nil {
			t.Fatal(err)
		}
		if err := cl.Do(&Request{Op: OpRecolor, Session: "g", Dirty: dirty, Seed: uint64(20 + i)}, &resp); err != nil {
			t.Fatal(err)
		}
	}

	verifyReq := Request{Op: OpVerify, Session: "g"}
	ses := sessionState(t, srv, "g")
	for _, stale := range []bool{false, true} {
		verifyRes := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// The worker is idle between requests; the hand-off orders
				// this write before its read.
				ses.stale, ses.hashed = stale, !stale
				if err := cl.Do(&verifyReq, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		if allocs := verifyRes.AllocsPerOp(); allocs != 0 {
			t.Errorf("warm verify request (stale=%v): %d allocs/op, want 0", stale, allocs)
		}
	}

	// Each recolor is followed by a verify: the non-empty certified
	// recheck of the nodes the repair changed, plus the cached hash.
	recolorReq := Request{Op: OpRecolor, Session: "g", Dirty: dirty}
	recolorRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recolorReq.Seed++
			if err := cl.Do(&recolorReq, &resp); err != nil {
				b.Fatal(err)
			}
			if err := cl.Do(&verifyReq, &resp); err != nil || !resp.Valid {
				b.Fatalf("verify after recolor: valid=%v err=%v", resp.Valid, err)
			}
		}
	})
	if allocs := recolorRes.AllocsPerOp(); allocs != 0 {
		t.Errorf("warm recolor + verify requests (explicit dirty): %d allocs/op, want 0", allocs)
	}
}
