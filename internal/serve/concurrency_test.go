package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2color/internal/alg"
	"d2color/internal/graph"
)

// TestServeConcurrentSessionsIdentical hammers three sessions from eight
// goroutines under the race detector: every color response must be
// byte-identical (hash, palette, metrics) to a direct library call with the
// same (algorithm, seed), no matter how requests interleave or batch. This is
// the -race half of the byte-identity acceptance bar.
func TestServeConcurrentSessionsIdentical(t *testing.T) {
	specs := map[string]graph.GeneratorSpec{
		"s0": {Kind: "ba", N: 240, Degree: 3, Seed: 1},
		"s1": {Kind: "gnp-avg", N: 200, P: 6, Seed: 2},
		"s2": {Kind: "star", N: 64},
	}
	algos := []string{"greedy", "relaxed"}
	seeds := []uint64{1, 2, 3}

	// Precompute the direct answers once, outside the server.
	type key struct {
		ses  string
		alg  string
		seed uint64
	}
	type want struct {
		hash    uint64
		palette int
	}
	wants := make(map[key]want)
	for name, spec := range specs {
		g, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, an := range algos {
			a, ok := alg.Get(an)
			if !ok {
				t.Fatalf("algorithm %q not registered", an)
			}
			for _, seed := range seeds {
				res, err := a.Run(g, alg.Engine{}, seed)
				if err != nil {
					t.Fatal(err)
				}
				wants[key{name, an, seed}] = want{HashColors(res.Coloring), res.PaletteSize}
			}
		}
	}

	srv := NewServer(Options{})
	defer srv.Close()
	for name := range specs {
		spec := specs[name]
		var resp Response
		if err := srv.Do(&Request{Op: OpOpen, Session: name, Spec: &spec}, &resp); err != nil {
			t.Fatal(err)
		}
		// Give every session a working coloring before the hammering starts:
		// a worker whose first request is a verify must not depend on some
		// other worker's color request having won the race to the session.
		if err := srv.Do(&Request{Op: OpColor, Session: name, Algorithm: algos[0], Seed: seeds[0]}, &resp); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := srv.NewClient()
			rng := splitmix64{state: uint64(w)*0x9e3779b97f4a7c15 + 1}
			var resp Response
			for i := 0; i < perWorker; i++ {
				ses := fmt.Sprintf("s%d", rng.intn(len(specs)))
				an := algos[rng.intn(len(algos))]
				seed := seeds[rng.intn(len(seeds))]
				k := key{ses, an, seed}
				if rng.float64() < 0.3 {
					// Interleave verifies; they must reflect whatever color
					// request last won, which is some entry of wants.
					if err := cl.Do(&Request{Op: OpVerify, Session: ses}, &resp); err != nil {
						errc <- fmt.Errorf("worker %d: verify %s: %w", w, ses, err)
						return
					}
					if !resp.Valid {
						errc <- fmt.Errorf("worker %d: verify %s reported invalid", w, ses)
						return
					}
					continue
				}
				if err := cl.Do(&Request{Op: OpColor, Session: ses, Algorithm: an, Seed: seed}, &resp); err != nil {
					errc <- fmt.Errorf("worker %d: color %s/%s/%d: %w", w, ses, an, seed, err)
					return
				}
				if resp.Hash != wants[k].hash || resp.PaletteSize != wants[k].palette {
					errc <- fmt.Errorf("worker %d: %s/%s/%d: hash %016x palette %d, want %016x %d",
						w, ses, an, seed, resp.Hash, resp.PaletteSize, wants[k].hash, wants[k].palette)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Requests < workers*perWorker {
		t.Errorf("stats recorded %d requests, want >= %d", st.Requests, workers*perWorker)
	}
}

// TestServeShutdownReleasesEngines pins the lifecycle contract: every session
// that is evicted, closed, or alive at server Close gets exactly one kernel
// shutdown, and the engine goroutines all exit — no leaks across a full
// open/evict/close cycle.
func TestServeShutdownReleasesEngines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	spec := graph.GeneratorSpec{Kind: "ba", N: 300, Degree: 3, Seed: 4}
	probe := NewServer(Options{Workers: 2})
	var resp Response
	if err := probe.Do(&Request{Op: OpOpen, Session: "p", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	est := resp.EstimatedBytes
	probe.Close()

	// Budget for three resident sessions; opening six forces three evictions,
	// each of which must close a live worker team.
	srv := NewServer(Options{ResidentBudget: 3*est + est/2, Workers: 2})
	for i := 0; i < 6; i++ {
		s := spec
		name := fmt.Sprintf("g%d", i)
		if err := srv.Do(&Request{Op: OpOpen, Session: name, Spec: &s}, &resp); err != nil {
			t.Fatal(err)
		}
		if err := srv.Do(&Request{Op: OpColor, Session: name, Algorithm: "relaxed", Seed: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		if err := srv.Do(&Request{Op: OpRecolor, Session: name, Corrupt: 3, Seed: 2}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	// Explicitly close one surviving session too.
	if err := srv.Do(&Request{Op: OpClose, Session: "g5"}, &resp); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	st := srv.Stats()
	if st.Opened != 6 {
		t.Errorf("opened = %d, want 6", st.Opened)
	}
	if st.Evicted != 3 {
		t.Errorf("evicted = %d, want 3", st.Evicted)
	}
	if st.Shutdown != st.Opened {
		t.Errorf("shutdowns = %d, want %d (one per opened session)", st.Shutdown, st.Opened)
	}

	// Engine goroutines unwind asynchronously after Close returns; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d+2", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
