package main

import (
	"errors"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"d2color/internal/graph"
	"d2color/internal/serve"
)

// syncWriter is a concurrency-safe sink for run's output: the daemon
// goroutine writes while the test polls for the bound address and the drain
// markers.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var servingAddr = regexp.MustCompile(`serving on (\S+)`)

// TestSigtermDrainsUnderLoad is the end-to-end drain acceptance: a real
// SIGTERM against the daemon while kernel work is in flight must flip
// /healthz to 503 "draining", let the in-flight requests finish (or cancel
// them past -drain), shut the listener down, and return nil — the exit-0,
// no-connection-reset path a rolling deploy depends on.
func TestSigtermDrainsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real daemon with n=30k kernel runs")
	}
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "30s"}, out) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := servingAddr.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	tr := serve.NewHTTPTransport("http://"+addr, nil)
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 30000, P: 8, Seed: 3}
	var resp serve.Response
	if err := tr.Do(&serve.Request{Op: serve.OpOpen, Session: "d", Spec: &spec}, &resp); err != nil {
		t.Fatalf("open: %v", err)
	}

	// Two slow colorings in flight when the signal lands. Under the generous
	// -drain they must complete with real answers, not resets or cancels.
	inflight := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed uint64) {
			w := serve.NewHTTPTransport("http://"+addr, nil)
			var r serve.Response
			inflight <- w.Do(&serve.Request{Op: serve.OpColor, Session: "d", Seed: seed}, &r)
		}(uint64(7 + i))
	}
	// Signal only once both colorings are past admission: a request the
	// drain beat to the door is rightly refused with ErrDraining, so one
	// still on its way is not in flight. QueueDepth counts the admitted,
	// unanswered requests; answers are collected before each stats read,
	// so a request that leaves the queue between the two is never counted
	// twice.
	var answered []error
	for {
	collect:
		for len(answered) < 2 {
			select {
			case err := <-inflight:
				answered = append(answered, err)
			default:
				break collect
			}
		}
		if err := tr.Do(&serve.Request{Op: serve.OpStats}, &resp); err != nil {
			t.Fatalf("stats: %v", err)
		}
		if int(resp.Stats.QueueDepth)+len(answered) >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// The drain window is open while the colorings run: /healthz must report
	// 503 "draining" in it (the listener still answers — only after Drain
	// returns does the HTTP shutdown start).
	sawDraining := false
	for !sawDraining {
		hr, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			break // listener already gone: too late to observe
		}
		body, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "draining") {
			sawDraining = true
		} else if hr.StatusCode == http.StatusOK {
			time.Sleep(time.Millisecond) // signal not yet processed
		} else {
			t.Fatalf("healthz during drain: status %d body %q", hr.StatusCode, body)
		}
	}
	if !sawDraining {
		t.Error("never observed /healthz 503 draining during the drain window")
	}

	for len(answered) < 2 {
		answered = append(answered, <-inflight)
	}
	for i, err := range answered {
		if err != nil {
			t.Errorf("in-flight coloring %d under graceful drain: %v", i, err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	for _, want := range []string{"draining", "drained, exiting"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSigtermHardCancelPastDeadline drives the other drain arm: with a tiny
// -drain budget the in-flight run is hard-canceled (ErrCanceled over the
// wire) and the daemon still exits cleanly — stuck work cannot wedge a
// shutdown.
func TestSigtermHardCancelPastDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real daemon with n=30k kernel runs")
	}
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "1ms"}, out) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := servingAddr.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	tr := serve.NewHTTPTransport("http://"+addr, nil)
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 30000, P: 8, Seed: 3}
	var resp serve.Response
	if err := tr.Do(&serve.Request{Op: serve.OpOpen, Session: "d", Spec: &spec}, &resp); err != nil {
		t.Fatalf("open: %v", err)
	}
	inflight := make(chan error, 1)
	go func() {
		w := serve.NewHTTPTransport("http://"+addr, nil)
		var r serve.Response
		inflight <- w.Do(&serve.Request{Op: serve.OpColor, Session: "d", Seed: 9}, &r)
	}()
	for {
		if err := tr.Do(&serve.Request{Op: serve.OpStats}, &resp); err != nil {
			t.Fatalf("stats: %v", err)
		}
		if resp.Stats.Inflight > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := <-inflight; !errors.Is(err, serve.ErrCanceled) {
		t.Errorf("in-flight coloring past the drain deadline: %v, want ErrCanceled", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil after hard-cancel drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drain deadline passed") {
		t.Errorf("output missing the hard-cancel marker:\n%s", out.String())
	}
}
