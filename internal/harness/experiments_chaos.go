package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"d2color/internal/graph"
	"d2color/internal/serve"
)

// runE14 is the chaos experiment: the serving plane driven through overload,
// deadline storms, injected worker panics, and a drain under live load — the
// failure modes PR 10's hardening exists for. Each row is one scenario:
//
//   - baseline/1x: the reference mix at low concurrency (the unloaded tail
//     the chaos gate compares against).
//   - overload/2x: ~2× capacity against a queue depth of 2 — the server must
//     shed (503) instead of queueing unboundedly.
//   - overload/retry: the same offered load from clients with seeded
//     backoff-and-retry — sheds convert to retries, accepted work completes.
//   - deadline-storm: forced ~1ms deadlines on half the requests plus
//     injected dispatch delays; canceled kernels unwind cooperatively and
//     the warm kernel's next run is byte-identical (checked inline against
//     a fresh server).
//   - panic-storm: a hash-pure plan panics a fraction of recolor requests in
//     the worker; panicking requests fail structurally, streaks quarantine
//     the session, clients reopen, and after Close every worker has exited
//     (opened == shutdown, goroutines at baseline).
//   - drain-under-load: Drain called while closed-loop workers hammer the
//     server; admission flips to draining, in-flight work finishes, and the
//     server closes inside the deadline.
//
// Request schedules, fault plans, and the invariant checks are deterministic
// per seed; every measured column (latencies, shed/retry/cancel counts —
// which depend on runtime interleaving) is volatile. The smoke test pins the
// deterministic columns byte-identically across two runs and asserts the
// structural outcomes (sheds happen, retries happen, cancels happen,
// quarantine fires, drain completes).
func runE14(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Chaos: overload shedding, deadline storms, panic quarantine, and graceful drain",
		Claim: "ROADMAP robustness item: the serving plane degrades predictably — bounded queues shed excess load, deadlines cancel cooperatively with warm kernels reusable byte-identically, panics quarantine without leaks, drains complete against a deadline",
		Columns: []string{"scenario", "sessions", "offered", "shed", "retried", "canceled",
			"panics", "quar", "p99 ms", "acc-p99 ms", "drain ms", "invariant"},
	}
	start := time.Now()

	n, sessions, reqs, conc := 2000, 2, 2400, 16
	if cfg.Quick {
		n, reqs, conc = 600, 600, 12
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
	addLoadRow := func(scenario string, rep serve.LoadReport, drainMS, invariant string) {
		t.AddRow(scenario, itoa(rep.Sessions), itoa(rep.Requests),
			itoa(rep.Shed), itoa(rep.Retried), itoa(rep.Canceled),
			fmt.Sprintf("%d", rep.ServerPanics), fmt.Sprintf("%d", rep.Quarantined),
			ms(rep.P99), ms(rep.AcceptedP99), drainMS, invariant)
	}

	base := serve.LoadSpec{
		Sessions: sessions, Family: "ba", N: n, Deg: 3,
		Requests: reqs, Concurrency: conc,
		VerifyFraction: 0.7, RecolorFraction: 0.1, Corrupt: 4, ColorSeeds: 1,
		Hot: 1.0, Seed: cfg.Seed,
	}

	// baseline/1x: low concurrency, deep queue — the unloaded tail.
	spec := base
	spec.Mix, spec.Concurrency = "baseline/1x", 2
	rep, err := serve.RunLoad(spec)
	if err != nil {
		return nil, fmt.Errorf("E14 baseline: %w", err)
	}
	inv := "ok"
	if rep.Errors > 0 {
		inv = fmt.Sprintf("FAIL: %d errors unloaded", rep.Errors)
	}
	addLoadRow(spec.Mix, rep, "-", inv)

	// overload/2x: the hot-keyed mix at full concurrency against queue depth
	// 2 — far past one worker's capacity; the only well-behaved outcome is
	// shedding.
	spec = base
	spec.Mix, spec.QueueDepth = "overload/2x", 2
	rep, err = serve.RunLoad(spec)
	if err != nil {
		return nil, fmt.Errorf("E14 overload: %w", err)
	}
	inv = "ok"
	switch {
	case rep.Shed == 0:
		inv = "FAIL: no sheds at 2x capacity"
	case rep.Shed+rep.Canceled >= rep.Requests:
		inv = "FAIL: nothing accepted under overload"
	}
	addLoadRow(spec.Mix, rep, "-", inv)

	// overload/retry: the same offered load from retrying clients.
	spec.Mix, spec.Retries = "overload/retry", 4
	rep, err = serve.RunLoad(spec)
	if err != nil {
		return nil, fmt.Errorf("E14 retry: %w", err)
	}
	inv = "ok"
	if rep.Retried == 0 {
		inv = "FAIL: overloaded clients never retried"
	}
	addLoadRow(spec.Mix, rep, "-", inv)

	// deadline-storm: forced ~1ms deadlines on half the requests plus
	// dispatch delays, on a graph big enough that a full color run takes
	// well past 1ms — so the color slice (distinct seeds, never coalesced)
	// guarantees real mid-kernel cancels, and the queue waits behind them
	// cancel queued requests before they touch a kernel.
	stormN, stormReqs := 20000, 800
	if cfg.Quick {
		stormN, stormReqs = 6000, 300
	}
	spec = base
	spec.Mix = "deadline-storm"
	spec.Sessions, spec.Family, spec.N, spec.Deg = 1, "gnp", stormN, 8
	spec.Requests = stormReqs
	spec.VerifyFraction, spec.RecolorFraction, spec.ColorSeeds = 0.3, 0.2, 64
	spec.Retries = 2
	spec.Chaos = serve.ChaosOptions{
		Seed:          cfg.Seed,
		DelayFraction: 0.2, MaxDelay: time.Millisecond,
		CancelFraction: 0.5, StormDeadlineMillis: 1,
	}
	rep, err = serve.RunLoad(spec)
	if err != nil {
		return nil, fmt.Errorf("E14 storm: %w", err)
	}
	inv = "ok"
	if rep.Canceled == 0 && rep.Retried == 0 {
		inv = "FAIL: storm produced no cancels"
	}
	if reuseOK, rerr := cancelReuseCheck(cfg); rerr != nil {
		return nil, fmt.Errorf("E14 reuse check: %w", rerr)
	} else if !reuseOK {
		inv = "FAIL: warm kernel not byte-identical after cancel"
	}
	addLoadRow(spec.Mix, rep, "-", inv)

	// panic-storm and drain-under-load run bespoke drivers (they need the
	// server handle after Close).
	row, err := panicStorm(cfg, n, reqs, conc)
	if err != nil {
		return nil, fmt.Errorf("E14 panic-storm: %w", err)
	}
	t.Rows = append(t.Rows, row)

	row, err = drainUnderLoad(cfg, n, conc)
	if err != nil {
		return nil, fmt.Errorf("E14 drain: %w", err)
	}
	t.Rows = append(t.Rows, row)

	t.Elapsed = time.Since(start)
	t.AddNote("closed loop at ~2x one worker's capacity: queue depth 2, hot-keyed traffic; shed = requests rejected 503 after retries, retried = backoff-and-retry attempts (seeded jitter, disjoint from the schedule stream)")
	t.AddNote("deadline-storm forces ~1ms deadlines on half the requests; canceled kernels unwind within O(one simulated round) and the invariant column includes a byte-identity check of the warm kernel's next run against a fresh server")
	t.AddNote("panic-storm panics a hash-pure fraction of recolor requests inside the worker; after Close, opened == shutdown and goroutines return to baseline (no engine leak)")
	t.AddNote("schedules, fault plans and invariants are deterministic per seed; every count and latency column depends on runtime interleaving and is volatile")
	return t, nil
}

// cancelReuseCheck pins the cancellation acceptance criterion: color a graph
// on a warm session, cancel a second run mid-kernel with a ~1ms deadline,
// rerun the first request, and require hash and metrics byte-identical to
// both the pre-cancel run and a fresh server's run. Checked inline and on a
// two-worker team.
func cancelReuseCheck(cfg Config) (bool, error) {
	n := 20000
	if cfg.Quick {
		n = 6000
	}
	spec := &graph.GeneratorSpec{Kind: "gnp-avg", N: n, P: 8, Seed: int64(cfg.Seed)}
	for _, workers := range []int{1, 2} {
		run := func() (serve.Response, serve.Response, error) {
			srv := serve.NewServer(serve.Options{Workers: workers})
			defer srv.Close()
			var first, again serve.Response
			var resp serve.Response
			if err := srv.Do(&serve.Request{Op: serve.OpOpen, Session: "x", Spec: spec}, &resp); err != nil {
				return first, again, err
			}
			if err := srv.Do(&serve.Request{Op: serve.OpColor, Session: "x", Seed: 7}, &first); err != nil {
				return first, again, err
			}
			// A different-seed run forced to cancel mid-kernel (an n=20000
			// coloring takes well over 1ms).
			err := srv.Do(&serve.Request{Op: serve.OpColor, Session: "x", Seed: 8, DeadlineMillis: 1}, &resp)
			if err != nil && !errors.Is(err, serve.ErrCanceled) {
				return first, again, err
			}
			err = srv.Do(&serve.Request{Op: serve.OpColor, Session: "x", Seed: 7}, &again)
			return first, again, err
		}
		first, again, err := run()
		if err != nil {
			return false, err
		}
		fresh, _, err := run()
		if err != nil {
			return false, err
		}
		if again.Hash != first.Hash || again.Metrics != first.Metrics ||
			again.Hash != fresh.Hash || again.Metrics != fresh.Metrics {
			return false, nil
		}
	}
	return true, nil
}

// panicStorm drives a server whose ChaosPanic hook panics a hash-pure
// fraction of recolor requests, with a quarantine threshold of 2. Clients
// reopen quarantined sessions like any eviction. After Close: opened must
// equal shutdown and the goroutine count must return to baseline.
func panicStorm(cfg Config, n, reqs, conc int) ([]string, error) {
	baseGoroutines := runtime.NumGoroutine()
	plan := serve.PanicPlan(cfg.Seed, 0.35)
	srv := serve.NewServer(serve.Options{
		QuarantineAfter: 2,
		// Panic only recolor requests: setup and reopen (open + color) must
		// stay fault-free or the storm cannot re-admit quarantined sessions.
		ChaosPanic: func(req *serve.Request) bool { return req.Op == serve.OpRecolor && plan(req) },
	})
	spec := &graph.GeneratorSpec{Kind: "ba", N: n, Degree: 3, Seed: int64(cfg.Seed)}
	open := func(cl *serve.Client) error {
		var resp serve.Response
		err := cl.Do(&serve.Request{Op: serve.OpOpen, Session: "p0", Spec: spec}, &resp)
		if err != nil && !errors.Is(err, serve.ErrSessionExists) {
			return err
		}
		err = cl.Do(&serve.Request{Op: serve.OpColor, Session: "p0", Seed: 7}, &resp)
		if err != nil && !errors.Is(err, serve.ErrUnknownSession) {
			return err
		}
		return nil
	}
	if err := open(srv.NewClient()); err != nil {
		srv.Close()
		return nil, err
	}

	var panicked, quarantinedSeen, served, reopens int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := reqs / conc
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := srv.NewClient()
			rng := splitmixHarness{state: cfg.Seed ^ (uint64(w+1) * 0xa5a5a5a5a5a5a5a5)}
			var resp serve.Response
			var nPanic, nQuar, nOK, nReopen int64
			for i := 0; i < per; i++ {
				req := serve.Request{Op: serve.OpRecolor, Session: "p0", Corrupt: 4, Seed: rng.next() % 64}
				err := cl.Do(&req, &resp)
				for attempt := 0; errors.Is(err, serve.ErrUnknownSession) && attempt < 3; attempt++ {
					if open(cl) != nil {
						break
					}
					nReopen++
					err = cl.Do(&req, &resp)
				}
				switch {
				case err == nil:
					nOK++
				case errors.Is(err, serve.ErrPanicked):
					nPanic++
				case errors.Is(err, serve.ErrQuarantined):
					nQuar++
				}
			}
			mu.Lock()
			panicked += nPanic
			quarantinedSeen += nQuar
			served += nOK
			reopens += nReopen
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	srv.Close()
	st := srv.Stats()

	inv := "ok"
	switch {
	case st.Panics == 0:
		inv = "FAIL: plan injected no panics"
	case st.Quarantined == 0:
		inv = "FAIL: panic streaks never quarantined"
	case st.Opened != st.Shutdown:
		inv = fmt.Sprintf("FAIL: opened %d != shutdown %d after close", st.Opened, st.Shutdown)
	case !goroutinesSettled(baseGoroutines, 5*time.Second):
		inv = fmt.Sprintf("FAIL: goroutines %d above baseline %d after close", runtime.NumGoroutine(), baseGoroutines)
	}
	return []string{"panic-storm", "1", itoa(per * conc), "0", "0", "0",
		fmt.Sprintf("%d", st.Panics), fmt.Sprintf("%d", st.Quarantined), "-", "-", "-", inv}, nil
}

// drainUnderLoad opens a session, points closed-loop workers at it, then
// calls Drain with a deadline while they hammer: admission must flip to
// draining, in-flight work must finish, and the server must be fully closed
// (opened == shutdown) inside the deadline.
func drainUnderLoad(cfg Config, n, conc int) ([]string, error) {
	srv := serve.NewServer(serve.Options{})
	spec := &graph.GeneratorSpec{Kind: "ba", N: n, Degree: 3, Seed: int64(cfg.Seed)}
	var resp serve.Response
	if err := srv.Do(&serve.Request{Op: serve.OpOpen, Session: "d0", Spec: spec}, &resp); err != nil {
		srv.Close()
		return nil, err
	}
	if err := srv.Do(&serve.Request{Op: serve.OpColor, Session: "d0", Seed: 7}, &resp); err != nil {
		srv.Close()
		return nil, err
	}

	var answered, badStops int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := srv.NewClient()
			var resp serve.Response
			var ok int64
			for {
				err := cl.Do(&serve.Request{Op: serve.OpVerify, Session: "d0"}, &resp)
				if err == nil {
					ok++
					continue
				}
				mu.Lock()
				answered += ok
				if !errors.Is(err, serve.ErrDraining) && !errors.Is(err, serve.ErrServerClosed) &&
					!errors.Is(err, serve.ErrCanceled) {
					badStops++
				}
				mu.Unlock()
				return
			}
		}()
	}
	// Let the loop establish real in-flight load, then drain against a
	// deadline generous next to the verify service time.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t0 := time.Now()
	drainErr := srv.Drain(ctx)
	drainMS := time.Since(t0)
	cancel()
	wg.Wait()
	st := srv.Stats()

	inv := "ok"
	switch {
	case drainErr != nil:
		inv = fmt.Sprintf("FAIL: drain missed deadline: %v", drainErr)
	case st.Inflight != 0:
		inv = fmt.Sprintf("FAIL: %d requests in flight after drain", st.Inflight)
	case st.Opened != st.Shutdown:
		inv = fmt.Sprintf("FAIL: opened %d != shutdown %d after drain", st.Opened, st.Shutdown)
	case badStops > 0:
		inv = fmt.Sprintf("FAIL: %d workers stopped on unexpected errors", badStops)
	case answered == 0:
		inv = "FAIL: no requests served before drain"
	}
	return []string{"drain-under-load", "1", "-", "0", "0", "0", "0", "0", "-", "-",
		fmt.Sprintf("%.3f", float64(drainMS.Microseconds())/1000), inv}, nil
}

// goroutinesSettled polls until the goroutine count returns to (near) the
// baseline — the same leak probe the serve lifecycle tests use, tolerating
// the runtime's own transient goroutines.
func goroutinesSettled(base int, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// splitmixHarness is a local SplitMix64 stream for bespoke chaos drivers
// (the serve package's stream is unexported).
type splitmixHarness struct{ state uint64 }

func (r *splitmixHarness) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
