package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"d2color/internal/graph"
)

// bigSpec is a graph whose color run takes well over a millisecond on any
// machine, so a ~1ms deadline is guaranteed to cancel mid-kernel.
var bigSpec = graph.GeneratorSpec{Kind: "gnp-avg", N: 20000, P: 8, Seed: 11}

// TestServeCancelWarmKernelByteIdentical pins the cancellation acceptance
// criterion: a canceled run must leave the warm kernel fully reusable — the
// next same-seed run returns hash and metrics byte-identical to the
// pre-cancel run and to a fresh server's run. Checked inline and on a
// two-worker team.
func TestServeCancelWarmKernelByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func() (first, again Response) {
				srv := NewServer(Options{Workers: workers})
				defer srv.Close()
				var resp Response
				if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &bigSpec}, &resp); err != nil {
					t.Fatal(err)
				}
				if err := srv.Do(&Request{Op: OpColor, Session: "x", Seed: 7}, &first); err != nil {
					t.Fatal(err)
				}
				err := srv.Do(&Request{Op: OpColor, Session: "x", Seed: 8, DeadlineMillis: 1}, &resp)
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("deadline run: got %v, want ErrCanceled", err)
				}
				if err := srv.Do(&Request{Op: OpColor, Session: "x", Seed: 7}, &again); err != nil {
					t.Fatal(err)
				}
				st := srv.Stats()
				if st.Canceled == 0 {
					t.Errorf("stats canceled = 0 after a canceled request")
				}
				return first, again
			}
			first, again := run()
			fresh, _ := run()
			if again.Hash != first.Hash || again.Metrics != first.Metrics {
				t.Errorf("post-cancel rerun diverged from pre-cancel run: hash %016x vs %016x",
					again.Hash, first.Hash)
			}
			if again.Hash != fresh.Hash || again.Metrics != fresh.Metrics {
				t.Errorf("post-cancel rerun diverged from fresh server: hash %016x vs %016x",
					again.Hash, fresh.Hash)
			}
		})
	}
}

// TestServeDoContextCancel links cancellation to a context: once the context
// is canceled, an in-flight request unwinds cooperatively with ErrCanceled.
func TestServeDoContextCancel(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	var resp Response
	if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &bigSpec}, &resp); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	err := srv.DoContext(ctx, &Request{Op: OpColor, Session: "x", Seed: 7}, &resp)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("DoContext after cancel: got %v, want ErrCanceled", err)
	}
	// An already-canceled context cancels before any kernel work.
	err = srv.DoContext(ctx, &Request{Op: OpColor, Session: "x", Seed: 9}, &resp)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("DoContext with dead context: got %v, want ErrCanceled", err)
	}
}

// TestServeOverloadShed pins the backpressure contract: with a queue depth of
// 1, a request arriving while another is executing is shed with
// ErrOverloaded instead of queueing, and the shed shows up in the server and
// session counters.
func TestServeOverloadShed(t *testing.T) {
	srv := NewServer(Options{QueueDepth: 1})
	defer srv.Close()
	var resp Response
	if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &bigSpec}, &resp); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		cl := srv.NewClient()
		var r Response
		done <- cl.Do(&Request{Op: OpColor, Session: "x", Seed: 7}, &r)
	}()
	// Wait until the slow color is admitted (pending = 1), then overflow.
	for {
		if st := srv.Stats(); st.QueueDepth >= 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	err := srv.Do(&Request{Op: OpVerify, Session: "x"}, &resp)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request past queue depth: got %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	st := srv.Stats()
	if st.Shed == 0 {
		t.Error("server shed counter is 0 after a shed")
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Shed == 0 {
		t.Error("session shed counter is 0 after a shed")
	}
}

// TestServeInflightBudgetShed pins the byte-budget half of admission: a
// request that would wake an idle session while the in-flight estimate is
// over budget sheds — unless that session alone would exceed the budget and
// nothing else is in flight (the one-huge-graph rule).
func TestServeInflightBudgetShed(t *testing.T) {
	small := graph.GeneratorSpec{Kind: "ba", N: 400, Degree: 3, Seed: 5}
	srv := NewServer(Options{InflightBudget: 1}) // any in-flight session busts it
	defer srv.Close()
	var resp Response
	if err := srv.Do(&Request{Op: OpOpen, Session: "a", Spec: &bigSpec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpOpen, Session: "b", Spec: &small}, &resp); err != nil {
		t.Fatal(err)
	}
	// One-huge rule: with nothing in flight, a session over the whole budget
	// still gets work.
	if err := srv.Do(&Request{Op: OpColor, Session: "b", Seed: 1}, &resp); err != nil {
		t.Fatalf("idle server, over-budget session: got %v, want success", err)
	}
	done := make(chan error, 1)
	go func() {
		cl := srv.NewClient()
		var r Response
		done <- cl.Do(&Request{Op: OpColor, Session: "a", Seed: 7}, &r)
	}()
	for {
		if st := srv.Stats(); st.InflightBytes > 0 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Waking idle session b now exceeds the in-flight budget (a's bytes are
	// charged, and the total is above b's own estimate) — shed.
	err := srv.Do(&Request{Op: OpVerify, Session: "b"}, &resp)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("waking idle session over budget: got %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
}

// TestServePanicQuarantine pins panic isolation end to end: an injected
// worker panic fails only the in-flight request (structured ErrPanicked), a
// second consecutive panic trips the quarantine (threshold 2), the session
// is evicted through the provably-closing shutdown path (opened == shutdown,
// no goroutine leak), and the key is immediately reusable.
func TestServePanicQuarantine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spec := graph.GeneratorSpec{Kind: "ba", N: 300, Degree: 3, Seed: 4}
	srv := NewServer(Options{
		QuarantineAfter: 2,
		Workers:         2, // quarantine must close live worker teams too
		ChaosPanic:      func(req *Request) bool { return req.Op == OpRecolor },
	})
	var resp Response
	if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpColor, Session: "x", Seed: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := srv.Do(&Request{Op: OpRecolor, Session: "x", Corrupt: 2, Seed: 9}, &resp)
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("recolor %d: got %v, want ErrPanicked", i, err)
		}
	}
	// The worker survives the first panic: between the two panics the session
	// still answers (and a success would reset the streak — verify does not
	// panic but also must not reset it... it does reset it, so drive the two
	// panics back to back as above and only now probe the aftermath).
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := srv.Do(&Request{Op: OpVerify, Session: "x"}, &resp)
		if errors.Is(err, ErrUnknownSession) {
			break // quarantined and gone
		}
		if err != nil && !errors.Is(err, ErrQuarantined) {
			t.Fatalf("post-panic probe: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("session never quarantined after the panic streak")
		}
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.Panics != 2 {
		t.Errorf("panics = %d, want 2", st.Panics)
	}
	if st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// The quarantine exits through the same shutdown path as an eviction.
	for st.Shutdown != st.Opened {
		if time.Now().After(deadline) {
			t.Fatalf("shutdowns %d never reached opened %d", st.Shutdown, st.Opened)
		}
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	// The key is free again, like any eviction.
	if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); err != nil {
		t.Fatalf("reopen after quarantine: %v", err)
	}
	srv.Close()
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d+2", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrain pins both drain outcomes. Graceful: with fast work in
// flight, Drain finishes it and closes with a nil error. Deadline: with a
// slow kernel run in flight and a tight context, Drain hard-cancels — the
// run unwinds with ErrCanceled within O(one round) — and still closes every
// session before returning.
func TestServeDrain(t *testing.T) {
	t.Run("graceful", func(t *testing.T) {
		small := graph.GeneratorSpec{Kind: "ba", N: 400, Degree: 3, Seed: 5}
		srv := NewServer(Options{})
		var resp Response
		if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &small}, &resp); err != nil {
			t.Fatal(err)
		}
		if err := srv.Do(&Request{Op: OpColor, Session: "x", Seed: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatalf("drain with idle server: %v", err)
		}
		if !srv.Draining() {
			t.Error("Draining() = false after Drain")
		}
		if err := srv.Do(&Request{Op: OpVerify, Session: "x"}, &resp); !errors.Is(err, ErrServerClosed) && !errors.Is(err, ErrDraining) {
			t.Errorf("request after drain: got %v, want draining/closed", err)
		}
		st := srv.Stats()
		if st.Opened != st.Shutdown {
			t.Errorf("opened %d != shutdown %d after drain", st.Opened, st.Shutdown)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		srv := NewServer(Options{})
		var resp Response
		if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &bigSpec}, &resp); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			cl := srv.NewClient()
			var r Response
			done <- cl.Do(&Request{Op: OpColor, Session: "x", Seed: 7}, &r)
		}()
		for srv.Stats().Inflight == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain past deadline: got %v, want DeadlineExceeded", err)
		}
		if err := <-done; !errors.Is(err, ErrCanceled) {
			t.Fatalf("in-flight run under hard cancel: got %v, want ErrCanceled", err)
		}
		st := srv.Stats()
		if st.Inflight != 0 {
			t.Errorf("inflight = %d after drain returned", st.Inflight)
		}
		if st.Opened != st.Shutdown {
			t.Errorf("opened %d != shutdown %d after drain", st.Opened, st.Shutdown)
		}
	})
}

// TestServeEvictionRacesFullQueue is the -race stress for the
// eviction-vs-dispatch corner: a resident budget that fits one session, a
// shallow queue kept full by a pack of dispatchers, and a main loop that
// keeps opening fresh sessions (each open evicting the LRU victim out from
// under the queued work). Every waiter must get a definite answer — a
// result, or a structured error (shed / unknown-session after eviction) —
// and the teardown must account every worker (opened == shutdown, no
// goroutine leak). A deadlock here is the bug the spare sentinel queue slot
// exists to prevent.
func TestServeEvictionRacesFullQueue(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spec := graph.GeneratorSpec{Kind: "ba", N: 800, Degree: 3, Seed: 6}
	var resp Response
	probe := NewServer(Options{})
	if err := probe.Do(&Request{Op: OpOpen, Session: "p", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	est := resp.EstimatedBytes
	probe.Close()

	srv := NewServer(Options{ResidentBudget: est + est/2, QueueDepth: 2})
	if err := srv.Do(&Request{Op: OpOpen, Session: "s0", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpColor, Session: "s0", Seed: 1}, &resp); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := srv.NewClient()
			var r Response
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := cl.Do(&Request{Op: OpVerify, Session: "s0"}, &r)
				switch {
				case err == nil,
					errors.Is(err, ErrOverloaded),
					errors.Is(err, ErrNotColored),
					errors.Is(err, ErrUnknownSession),
					errors.Is(err, ErrServerClosed):
					// Definite answers: served, shed, or structurally evicted.
				default:
					errs <- fmt.Errorf("worker %d: unexpected %v", w, err)
					return
				}
			}
		}(w)
	}
	// Churn: every open evicts the previous resident while its queue is full.
	for i := 1; i <= 40; i++ {
		s := spec
		s.Seed = int64(6 + i%3)
		name := fmt.Sprintf("s%d", i)
		if err := srv.Do(&Request{Op: OpOpen, Session: name, Spec: &s}, &resp); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		// Re-admit s0 half the time so the dispatchers' target keeps coming
		// back (open → evict → reopen), exercising both sides of the race.
		if i%2 == 0 {
			s0 := spec
			if err := srv.Do(&Request{Op: OpOpen, Session: "s0", Spec: &s0}, &resp); err != nil && !errors.Is(err, ErrSessionExists) {
				t.Fatalf("reopen s0: %v", err)
			}
			if err := srv.Do(&Request{Op: OpColor, Session: "s0", Seed: 1}, &resp); err != nil && !errors.Is(err, ErrUnknownSession) && !errors.Is(err, ErrOverloaded) {
				t.Fatalf("recolor s0: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	srv.Close()
	st := srv.Stats()
	if st.Opened != st.Shutdown {
		t.Errorf("opened %d != shutdown %d after close", st.Opened, st.Shutdown)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d > %d+2", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosGate is the chaos-plane gate. It always runs a panic storm and an
// overload mix and logs the outcomes; the assertions — post-storm goroutines
// at baseline with opened == shutdown, and the accepted-request p99 under
// shedding within 10× the unloaded p99 — are enforced only under
// D2_CHAOS_GATE=1 (the CI chaos-gate job), mirroring the serve gate: timing
// claims don't fail local runs on loaded machines.
func TestChaosGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs load mixes")
	}
	enforce := os.Getenv("D2_CHAOS_GATE") == "1"
	check := func(ok bool, format string, args ...any) {
		if ok {
			return
		}
		if enforce {
			t.Errorf(format, args...)
		} else {
			t.Logf("(not enforced, set D2_CHAOS_GATE=1) "+format, args...)
		}
	}

	// Panic storm: quarantine threshold 2, every 3rd recolor seed panics via
	// the deterministic plan; clients just hammer and tolerate the fallout.
	baseline := runtime.NumGoroutine()
	plan := PanicPlan(17, 0.5)
	spec := LoadSpec{
		Mix: "gate/panic-storm", Sessions: 2, Family: "ba", N: 1000, Deg: 3,
		Requests: 800, Concurrency: 8,
		VerifyFraction: 0.3, RecolorFraction: 0.6, Corrupt: 4, ColorSeeds: 4,
		Hot: 0.8, Seed: 17, QuarantineAfter: 2, Retries: 2,
	}
	srv := NewServer(Options{
		QuarantineAfter: spec.QuarantineAfter,
		ChaosPanic:      func(req *Request) bool { return req.Op == OpRecolor && plan(req) },
	})
	storm, err := RunLoadWith(func() Transport { return srv.NewClient() }, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	st := srv.Stats()
	t.Logf("panic-storm: %d panics, %d quarantined, %d reopens, opened=%d shutdown=%d",
		st.Panics, st.Quarantined, storm.Reopens, st.Opened, st.Shutdown)
	if st.Panics == 0 {
		t.Error("panic plan injected no panics")
	}
	check(st.Opened == st.Shutdown, "opened %d != shutdown %d after panic storm", st.Opened, st.Shutdown)
	settled := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			settled = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	check(settled, "goroutines %d above baseline %d after panic storm", runtime.NumGoroutine(), baseline)

	// Shed-mode tail: the same mix unloaded and at ~2x capacity against a
	// queue depth of 2. Accepted requests must keep a bounded tail — the
	// point of shedding is that admitted work stays fast.
	quiet := LoadSpec{
		Mix: "gate/unloaded", Sessions: 2, Family: "ba", N: 1500, Deg: 3,
		Requests: 600, Concurrency: 2,
		VerifyFraction: 0.9, ColorSeeds: 1, Hot: 1.0, Seed: 17,
	}
	unloaded, err := RunLoad(quiet)
	if err != nil {
		t.Fatal(err)
	}
	hot := quiet
	hot.Mix, hot.Concurrency, hot.QueueDepth = "gate/overload", 16, 2
	shed, err := RunLoad(hot)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unloaded: p99=%v; overload: shed=%d accepted-p99=%v", unloaded.P99, shed.Shed, shed.AcceptedP99)
	if shed.Shed == 0 {
		t.Error("overload mix shed nothing at 2x capacity")
	}
	check(shed.AcceptedP99 < 10*unloaded.P99,
		"accepted p99 under shedding %v >= 10x unloaded p99 %v", shed.AcceptedP99, unloaded.P99)
}
