package serve

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"d2color/internal/coloring"
	"d2color/internal/graph"
	"d2color/internal/verify"
)

// sessionState returns the live session for key. Callers use it only
// between requests: the worker's last writes happen before it answered the
// previous request, and its next reads after the next one is queued.
func sessionState(t testing.TB, srv *Server, key string) *session {
	t.Helper()
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	ses := srv.sessions[key]
	if ses == nil {
		t.Fatalf("session %q is gone", key)
	}
	return ses
}

// fullVerifyResponse is what a verify of the session's working coloring
// must answer: a fresh full CheckD2 plus HashColors.
func fullVerifyResponse(ses *session) Response {
	rep := verify.CheckD2(ses.g, ses.colors, ses.palette)
	return Response{
		Op: OpVerify, Session: ses.key,
		Algorithm: ses.algorithm, Hash: HashColors(ses.colors), PaletteSize: ses.palette,
		Valid: rep.Valid, ColorsUsed: rep.ColorsUsed, MaxColor: rep.MaxColor,
	}
}

// TestServeVerifyMatchesFullCheck is the serving plane's differential suite
// of the certified verify and the incremental hash: random op scripts —
// Corrupt, Dirty (duplicates, uncolored nodes, all nodes, an out-of-range
// node), Stabilize, color with a new algorithm or seed, recolors canceled
// by DeadlineMillis and mid-mutation, and injected worker panics — on a
// narrow-palette and a wide-palette (MaxColor ≥ n) family. Every answered color and recolor must carry a fresh HashColors of
// the session's coloring, including the op after a failed one. After most
// ops (some run back to back, so touched lists, digests and staleness carry
// over), every verify must answer exactly a fresh CheckD2 + HashColors of
// the session's coloring.
func TestServeVerifyMatchesFullCheck(t *testing.T) {
	steps := 160
	specs := []graph.GeneratorSpec{
		{Kind: "gnp-avg", N: 600, P: 6, Seed: 4},
		{Kind: "ba", N: 300, Degree: 3, Seed: 6},
	}
	if testing.Short() {
		steps = 50
		specs[0].N = 300
	}
	algorithms := []string{"relaxed", "greedy", "rand-improved", "deterministic"}
	for _, spec := range specs {
		t.Run(spec.Kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(spec.Seed) * 10))
			var panicNext, cancelNext bool
			var srv *Server
			// Quarantine is off: this suite injects panics to cut ops
			// short, not to evict the session.
			srv = NewServer(Options{QuarantineAfter: -1, ChaosPanic: func(*Request) bool {
				if cancelNext {
					// Trips every kernel's cancel hook after the
					// worker's queued-cancel check: the recolor
					// corrupts, then its repair is canceled.
					srv.hardCancel.Store(true)
				}
				return panicNext
			}})
			defer srv.Close()
			var resp Response
			sp := spec
			if err := srv.Do(&Request{Op: OpOpen, Session: "s", Spec: &sp}, &resp); err != nil {
				t.Fatal(err)
			}
			if err := srv.Do(&Request{Op: OpColor, Session: "s", Seed: 1}, &resp); err != nil {
				t.Fatal(err)
			}
			n := sessionState(t, srv, "s").g.NumNodes()
			failures := map[string]int{}
			for step := 0; step < steps; step++ {
				req := Request{Op: OpRecolor, Session: "s", Seed: rng.Uint64()}
				kind := ""
				k := rng.Intn(100)
				switch {
				case k < 30:
					kind = "corrupt"
					req.Corrupt = 1 + rng.Intn(12)
				case k < 50:
					kind = "dirty"
					for i := rng.Intn(10); i >= 0; i-- {
						v := graph.NodeID(rng.Intn(n))
						req.Dirty = append(req.Dirty, v, v) // duplicates
					}
				case k < 55:
					kind = "dirty-all"
					for v := 0; v < n; v++ {
						req.Dirty = append(req.Dirty, graph.NodeID(v))
					}
				case k < 60:
					// Churn the request API has no op for (a node
					// losing its color, as a join does), applied while
					// the worker is idle and recorded the way a served
					// mutation records it: touched list and hash.
					kind = "uncolor+dirty"
					ses := sessionState(t, srv, "s")
					v := graph.NodeID(rng.Intn(n))
					ses.colors[v] = coloring.Uncolored
					ses.touched = append(ses.touched, v)
					if ses.hashed {
						ses.hash = ses.digests.update(ses.colors, []graph.NodeID{v})
					}
					ses.complete = false
					if rng.Intn(2) == 0 {
						checkServedVerify(t, srv, step, kind+" (before repair)")
					}
					req.Dirty = []graph.NodeID{v}
				case k < 62:
					kind = "out-of-range dirty"
					req.Dirty = []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(n)}
				case k < 64:
					kind = "stabilize"
				case k < 74:
					kind = "color"
					req = Request{Op: OpColor, Session: "s",
						Algorithm: algorithms[rng.Intn(len(algorithms))], Seed: uint64(rng.Intn(4))}
				case k < 80:
					kind = "deadline"
					req.Corrupt, req.DeadlineMillis = 1+rng.Intn(12), 1
					if rng.Intn(2) == 0 {
						req.Corrupt = 0
						for v := 0; v < n; v++ {
							req.Dirty = append(req.Dirty, graph.NodeID(v))
						}
					}
				case k < 88:
					kind = "canceled mid-mutation"
					req.Corrupt = 1 + rng.Intn(12)
					cancelNext = true
				case k < 94:
					kind = "panic"
					req.Corrupt = 1 + rng.Intn(12)
					panicNext = true
				default:
					kind = "verify only"
					req = Request{}
				}
				if req.Op != "" {
					err := srv.Do(&req, &resp)
					panicNext, cancelNext = false, false
					srv.hardCancel.Store(false)
					switch {
					case kind == "out-of-range dirty":
						if err == nil {
							t.Fatalf("step %d (%s): recolor accepted node %d of %d", step, kind, n, n)
						}
						failures[kind]++
					case err == nil:
						ses := sessionState(t, srv, "s")
						if want := HashColors(ses.colors); resp.Hash != want {
							t.Fatalf("step %d (%s): %s hash %#x, fresh HashColors %#x", step, kind, req.Op, resp.Hash, want)
						}
					case errors.Is(err, ErrCanceled), errors.Is(err, ErrPanicked):
						failures[kind]++
					default:
						t.Fatalf("step %d (%s): %v", step, kind, err)
					}
					if ses := sessionState(t, srv, "s"); ses.complete {
						if v := slices.Index(ses.colors, coloring.Uncolored); v >= 0 {
							t.Fatalf("step %d (%s): session claims a complete coloring, node %d is uncolored", step, kind, v)
						}
					}
				}
				// Now and then ops run back to back, so touched lists
				// and staleness carry across several mutations.
				if rng.Intn(3) > 0 {
					checkServedVerify(t, srv, step, kind)
				}
			}
			if failures["canceled mid-mutation"] == 0 || failures["panic"] == 0 {
				t.Errorf("script exercised no mid-mutation cancel or no panic: %v", failures)
			}
		})
	}
}

// checkServedVerify issues one verify and compares it with a fresh full
// check of the session's coloring.
func checkServedVerify(t *testing.T, srv *Server, step int, kind string) {
	t.Helper()
	var resp Response
	err := srv.Do(&Request{Op: OpVerify, Session: "s"}, &resp)
	ses := sessionState(t, srv, "s")
	if err != nil {
		t.Fatalf("step %d (%s): verify: %v", step, kind, err)
	}
	if want := fullVerifyResponse(ses); resp != want {
		t.Fatalf("step %d (%s): verify = %+v, full check %+v", step, kind, resp, want)
	}
}
