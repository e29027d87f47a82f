// Command d2served runs the coloring-as-a-service daemon: the warm-session
// server of internal/serve behind an HTTP/JSON endpoint.
//
//	POST /v1/do      {"op":"open"|"color"|"verify"|"recolor"|"stats"|"close", ...}
//	GET  /v1/stats   server and per-session counters
//	GET  /healthz    liveness
//
// Sessions hold a built CSR plus resident warm kernels (trial runner,
// verifier, repair session), bounded by -budget with LRU eviction; queued
// same-session requests are executed in one batching window. A -debug
// listener exposes net/http/pprof and an expvar snapshot of the serve
// counters for live inspection.
//
// Example:
//
//	d2served -addr :8080 -debug :6060 -budget 2147483648
//	d2served -selfcheck    # loopback smoke: open/color/verify/recolor/stats, then exit
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/graph"
	"d2color/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2served:", err)
		os.Exit(1)
	}
}

// publishOnce guards the expvar registration: expvar.Publish panics on
// duplicate names, and tests call run more than once per process.
var publishOnce sync.Once

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("d2served", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "serve address for the request API")
		debug     = fs.String("debug", "", "debug address for pprof + expvar (empty: disabled)")
		budget    = fs.Int64("budget", 0, "resident-bytes budget across cached sessions (0: unlimited)")
		batchMax  = fs.Int("batchmax", 0, "max requests per dispatch window (0: default 64)")
		unbatched = fs.Bool("unbatched", false, "disable request batching (control arm)")
		workers   = fs.Int("workers", 1, "CONGEST engine workers per session kernel (1: rounds run inline on the session's goroutine)")
		selfcheck = fs.Bool("selfcheck", false, "serve on a loopback port, run a request cycle against it, and exit")
		drainWait = fs.Duration("drain", 5*time.Second, "graceful-drain deadline on SIGTERM/SIGINT (in-flight work is hard-canceled past it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := serve.NewServer(serve.Options{
		ResidentBudget: *budget,
		BatchMax:       *batchMax,
		Unbatched:      *unbatched,
		Workers:        *workers,
	})
	defer srv.Close()

	if *debug != "" {
		publishOnce.Do(func() {
			expvar.Publish("d2serve", expvar.Func(func() any { return srv.Stats() }))
		})
		// pprof and expvar register on the default mux; serve it on its own
		// listener so the request API stays separate.
		go func() {
			if err := http.ListenAndServe(*debug, nil); err != nil {
				fmt.Fprintf(os.Stderr, "d2served: debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(out, "debug listening on %s (pprof at /debug/pprof/, counters at /debug/vars)\n", *debug)
	}

	if *selfcheck {
		return runSelfcheck(srv, out)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv)
	fmt.Fprintf(out, "serving on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain, in order: Drain flips /healthz to 503 "draining" and
	// rejects new work immediately, finishes (or, past -drain, hard-cancels)
	// every in-flight request, and closes every session's kernels; only then
	// does the HTTP listener shut down — so a request that slipped in before
	// the signal still gets its real answer, not a connection reset.
	fmt.Fprintln(out, "draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(out, "drain deadline passed, in-flight work canceled: %v\n", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "drained, exiting")
	return nil
}

// Connection bounds of the request listener. ReadHeaderTimeout caps how long
// a client may take to send its request headers, so a slow-loris client
// cannot pin a connection (and its goroutine) indefinitely; IdleTimeout
// closes keep-alive connections that carry no request for that long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps srv's HTTP handler in a server with the connection
// bounds above.
func newHTTPServer(srv *serve.Server) *http.Server {
	return &http.Server{
		Handler:           serve.NewHandler(srv),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runSelfcheck serves on an ephemeral loopback port and drives one full
// request cycle through the HTTP transport — the end-to-end smoke a deploy
// can run before pointing real traffic at a build.
func runSelfcheck(srv *serve.Server, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	defer hs.Close()

	tr := serve.NewHTTPTransport("http://"+ln.Addr().String(), nil)
	spec := graph.GeneratorSpec{Kind: "ba", N: 2000, Degree: 3, Seed: 1}
	var resp serve.Response
	if err := tr.Do(&serve.Request{Op: serve.OpOpen, Session: "selfcheck", Spec: &spec}, &resp); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	fmt.Fprintf(out, "open: n=%d m=%d est=%d bytes\n", resp.Nodes, resp.Edges, resp.EstimatedBytes)
	if err := tr.Do(&serve.Request{Op: serve.OpColor, Session: "selfcheck", Algorithm: "relaxed", Seed: 1}, &resp); err != nil {
		return fmt.Errorf("color: %w", err)
	}
	fmt.Fprintf(out, "color: alg=%s palette=%d colors=%d valid=%v hash=%016x\n",
		resp.Algorithm, resp.PaletteSize, resp.ColorsUsed, resp.Valid, resp.Hash)
	if err := tr.Do(&serve.Request{Op: serve.OpVerify, Session: "selfcheck"}, &resp); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !resp.Valid {
		return fmt.Errorf("selfcheck: coloring failed verification")
	}
	if err := tr.Do(&serve.Request{Op: serve.OpRecolor, Session: "selfcheck", Corrupt: 8, Seed: 2}, &resp); err != nil {
		return fmt.Errorf("recolor: %w", err)
	}
	fmt.Fprintf(out, "recolor: dirty=%d ball=%d recolored=%d complete=%v\n",
		resp.Dirty, resp.Ball, resp.Recolored, resp.Complete)
	if err := tr.Do(&serve.Request{Op: serve.OpVerify, Session: "selfcheck"}, &resp); err != nil {
		return fmt.Errorf("verify after recolor: %w", err)
	}
	if !resp.Valid {
		return fmt.Errorf("selfcheck: post-repair coloring failed verification")
	}
	if err := tr.Do(&serve.Request{Op: serve.OpStats}, &resp); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	st := resp.Stats
	fmt.Fprintf(out, "stats: sessions=%d requests=%d resident=%d bytes\n",
		len(st.Sessions), st.Requests, st.ResidentEstimate)
	fmt.Fprintln(out, "selfcheck ok")
	return nil
}
