// Command d2load is the deterministic load driver for the serving plane: it
// replays named closed-loop request mixes against an in-process server (or a
// remote d2served via -addr) and reports latency percentiles and sustained
// colorings/sec.
//
// The four standard mixes cross {many-small-graphs, one-huge-graph} with
// {query-heavy, churn-heavy}; "all" also runs an unbatched twin of the
// many-small query mix, so the batching win is measured in the same breath.
// Request schedules are deterministic per (mix, seed) — two runs issue the
// identical request sequences, so p50/p99 deltas between builds are real.
//
// Overload knobs shape degraded-mode runs: -queue-depth bounds the
// in-process server's per-session queues (excess requests shed with 503),
// -deadline-ms attaches a deadline to every request, and -retries makes the
// driver a well-behaved client — transient 503s and deadline cancels retry
// with capped exponential backoff and seeded jitter (the jitter stream is
// disjoint from the schedule stream, so retry timing never changes which
// requests are issued). The report then splits outcomes into retried, shed
// and canceled counts, and acc-p99: the post-retry tail of
// ultimately-successful requests.
//
// Example:
//
//	d2load -mix all
//	d2load -mix many-small/query -unbatched -json
//	d2load -mix one-huge/churn -addr http://127.0.0.1:8080
//	d2load -mix many-small/query -conc 32 -queue-depth 2 -retries 3
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "d2load:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("d2load", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		mix       = fs.String("mix", "all", `mix name ("all", or one of the standard mixes)`)
		quick     = fs.Bool("quick", false, "quick-scale mixes (CI smoke sizes)")
		requests  = fs.Int("requests", 0, "override total requests per mix")
		conc      = fs.Int("conc", 0, "override concurrency")
		sessions  = fs.Int("sessions", 0, "override session count")
		n         = fs.Int("n", 0, "override per-session graph size")
		seed      = fs.Uint64("seed", 0, "override schedule seed")
		unbatched = fs.Bool("unbatched", false, "disable server-side batching")
		asJSON    = fs.Bool("json", false, "emit reports as JSON lines")
		addr      = fs.String("addr", "", "drive a remote server at this base URL instead of in-process")

		retries    = fs.Int("retries", 0, "client retries of 503s and deadline cancels (capped exponential backoff + seeded jitter)")
		retryBase  = fs.Duration("retry-base", 0, "base backoff between retries (0: 200µs; capped at 16x)")
		deadlineMS = fs.Int64("deadline-ms", 0, "per-request deadline in milliseconds (0: none)")
		queueDepth = fs.Int("queue-depth", 0, "in-process server per-session queue bound (0: serve default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	specs := serve.StandardMixes(*quick)
	if *mix != "all" {
		idx := -1
		var names []string
		for i, s := range specs {
			names = append(names, s.Mix)
			if s.Mix == *mix {
				idx = i
			}
		}
		if idx < 0 {
			return fmt.Errorf("unknown mix %q (want all, %s)", *mix, strings.Join(names, ", "))
		}
		specs = specs[idx : idx+1]
	}

	w := bufio.NewWriter(out)
	defer w.Flush()
	if !*asJSON {
		fmt.Fprintf(w, "%-24s %9s %6s %10s %10s %10s %9s %11s %7s %6s %6s %6s %7s %10s\n",
			"mix", "requests", "conc", "p50", "p95", "p99", "req/s", "colorings/s", "batch", "evict",
			"retry", "shed", "cancel", "acc-p99")
	}
	for _, spec := range specs {
		applyOverrides(&spec, *requests, *conc, *sessions, *n, *seed, *unbatched)
		spec.Retries, spec.RetryBase = *retries, *retryBase
		spec.DeadlineMillis, spec.QueueDepth = *deadlineMS, *queueDepth
		if err := runMix(w, spec, *addr, *asJSON); err != nil {
			return err
		}
		// "all" includes the unbatched control twin of the coalescing-friendly
		// query mix, so batched-vs-unbatched is one report apart.
		if *mix == "all" && spec.Mix == "many-small/query" && !spec.Unbatched {
			twin := spec
			twin.Mix = spec.Mix + "/unbatched"
			twin.Unbatched = true
			if err := runMix(w, twin, *addr, *asJSON); err != nil {
				return err
			}
		}
	}
	return nil
}

func applyOverrides(spec *serve.LoadSpec, requests, conc, sessions, n int, seed uint64, unbatched bool) {
	if requests > 0 {
		spec.Requests = requests
	}
	if conc > 0 {
		spec.Concurrency = conc
	}
	if sessions > 0 {
		spec.Sessions = sessions
		spec.Budget = 0 // an overridden population invalidates the mix's sized budget
	}
	if n > 0 {
		spec.N = n
		spec.Budget = 0
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if unbatched {
		spec.Unbatched = true
	}
}

func runMix(w io.Writer, spec serve.LoadSpec, addr string, asJSON bool) error {
	var rep serve.LoadReport
	var err error
	if addr != "" {
		rep, err = serve.RunLoadWith(func() serve.Transport {
			return serve.NewHTTPTransport(strings.TrimRight(addr, "/"), nil)
		}, spec)
	} else {
		rep, err = serve.RunLoad(spec)
	}
	if err != nil {
		return fmt.Errorf("mix %s: %w", spec.Mix, err)
	}
	// Sheds and deadline cancels are configured outcomes (bounded queues,
	// -deadline-ms), reported in their own columns; only errors beyond them
	// mean the run itself is broken.
	if unexpected := rep.Errors - rep.Shed - rep.Canceled; unexpected > 0 {
		return fmt.Errorf("mix %s: %d request errors", spec.Mix, unexpected)
	}
	if asJSON {
		return json.NewEncoder(w).Encode(rep)
	}
	// acc-p99 is the post-retry tail of ultimately-successful requests —
	// the latency a retrying client actually observes under overload.
	fmt.Fprintf(w, "%-24s %9d %6d %10s %10s %10s %9.0f %11.1f %7.1f %6d %6d %6d %7d %10s\n",
		rep.Mix, rep.Requests, rep.Concurrency,
		fmtDur(rep.P50), fmtDur(rep.P95), fmtDur(rep.P99),
		rep.RequestsPerSec, rep.ColoringsPerSec, rep.MeanBatch, rep.Evictions,
		rep.Retried, rep.Shed, rep.Canceled, fmtDur(rep.AcceptedP99))
	return nil
}

// fmtDur rounds for the table (full precision lives in -json).
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
