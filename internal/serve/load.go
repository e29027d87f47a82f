package serve

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"d2color/internal/graph"
)

// LoadSpec describes one closed-loop load mix: a session population, a
// request mix over it, and a concurrency level. The schedule is
// deterministic (one SplitMix64 stream per worker, seeded from Seed), so two
// runs of the same spec issue byte-identical request sequences — only the
// measured latencies are machine-dependent.
type LoadSpec struct {
	// Mix names the workload for reports ("many-small/query", ...).
	Mix string
	// Sessions is the session population; Family/N/Deg describe each
	// session's graph ("ba" → BarabasiAlbert(N, Deg), "gnp" → average
	// degree Deg, "unitdisk" → radius Deg). Session i gets seed Seed+i.
	Sessions int
	Family   string
	N        int
	Deg      float64
	// Algorithm colors the sessions (registry name; default "relaxed").
	Algorithm string
	// Requests is the total closed-loop request count, split evenly across
	// Concurrency workers.
	Requests    int
	Concurrency int
	// The op mix: VerifyFraction of requests verify, RecolorFraction run a
	// churn epoch (Corrupt corrupted colors each), and the remainder are
	// color requests drawing their seed from ColorSeeds distinct values
	// (1 = the same coloring re-requested every time — the read-shaped
	// query the batch coalescer collapses).
	VerifyFraction  float64
	RecolorFraction float64
	Corrupt         int
	ColorSeeds      int
	// Hot skews the session pick: this fraction of requests target session 0
	// (the rest draw uniformly), modeling the hot-key skew of real query
	// traffic — and the condition under which same-session requests pile into
	// one dispatch window and coalesce.
	Hot  float64
	Seed uint64
	// Server shape.
	Unbatched bool
	BatchMax  int
	Budget    int64
	Workers   int
	// Overload shape (RunLoad's in-process server; remote servers bring their
	// own): per-session queue depth, in-flight byte budget, and the
	// consecutive-panic quarantine threshold (all 0 = serve defaults).
	QueueDepth      int
	InflightBudget  int64
	QuarantineAfter int
	// DeadlineMillis attaches a per-request deadline to every load request
	// (0: none).
	DeadlineMillis int64
	// Retries caps client-side retries of transiently rejected requests —
	// the 503 family (overloaded/draining/quarantined) and deadline cancels.
	// Each retry backs off exponentially from RetryBase (0: 200µs), capped at
	// 16× and jittered from a dedicated seeded stream, so retry timing never
	// perturbs the deterministic request schedule. 0 disables retries.
	Retries   int
	RetryBase time.Duration
	// Chaos configures fault injection: transport-side faults (delays,
	// deadline storms) wrap every worker transport in a ChaosTransport;
	// PanicFraction additionally installs PanicPlan as the in-process
	// server's ChaosPanic hook.
	Chaos ChaosOptions
}

func (s LoadSpec) algorithm() string {
	if s.Algorithm == "" {
		return "relaxed"
	}
	return s.Algorithm
}

func (s LoadSpec) colorSeeds() uint64 {
	if s.ColorSeeds <= 0 {
		return 1
	}
	return uint64(s.ColorSeeds)
}

// sessionSpec is the generator spec of session i.
func (s LoadSpec) sessionSpec(i int) *graph.GeneratorSpec {
	spec := &graph.GeneratorSpec{N: s.N, Seed: int64(s.Seed) + int64(i)}
	switch s.Family {
	case "gnp":
		spec.Kind, spec.P = "gnp-avg", s.Deg
	case "unitdisk":
		spec.Kind, spec.P = "unitdisk", s.Deg
	default:
		spec.Kind, spec.Degree = "ba", int(s.Deg)
	}
	return spec
}

// LoadReport is the outcome of one load run. Latency quantiles are measured
// per request at the transport boundary (closed loop: a worker issues its
// next request only after the previous response).
type LoadReport struct {
	Mix         string        `json:"mix"`
	Sessions    int           `json:"sessions"`
	Nodes       int           `json:"nodes"`
	Requests    int           `json:"requests"`
	Concurrency int           `json:"concurrency"`
	Unbatched   bool          `json:"unbatched,omitempty"`
	Errors      int           `json:"errors"`
	Reopens     int           `json:"reopens"`
	Elapsed     time.Duration `json:"elapsed"`

	P50 time.Duration `json:"p50"`
	P95 time.Duration `json:"p95"`
	P99 time.Duration `json:"p99"`
	Max time.Duration `json:"max"`
	// Per-op medians over the same latencies (0 for an op the mix never
	// issued): a tail can be judged against the cost of one op kind rather
	// than against a median the mix's cheapest op sets.
	ColorP50   time.Duration `json:"colorP50,omitempty"`
	VerifyP50  time.Duration `json:"verifyP50,omitempty"`
	RecolorP50 time.Duration `json:"recolorP50,omitempty"`

	// Overload outcome, client-side. Retried counts retry attempts issued
	// (a request shed then accepted on retry contributes to Retried but not
	// Shed); Canceled counts requests whose final outcome after retries was
	// ErrCanceled, Shed those finally rejected for load reasons (the 503
	// family, or an eviction-churn race that outlived every reopen+retry).
	// The Accepted percentiles cover only ultimately-successful requests,
	// timed end-to-end including their retries and backoff — the tail a
	// well-behaved client actually sees under overload (the plain P50/P95/P99
	// above include rejected requests, whose fast 503s drag the distribution
	// down).
	Retried     int           `json:"retried,omitempty"`
	Shed        int           `json:"shed,omitempty"`
	Canceled    int           `json:"canceled,omitempty"`
	AcceptedP50 time.Duration `json:"acceptedP50,omitempty"`
	AcceptedP95 time.Duration `json:"acceptedP95,omitempty"`
	AcceptedP99 time.Duration `json:"acceptedP99,omitempty"`

	// Server-side overload counters (from the stats op after the run).
	ServerShed   int64 `json:"serverShed,omitempty"`
	ServerPanics int64 `json:"serverPanics,omitempty"`
	Quarantined  int64 `json:"quarantined,omitempty"`

	RequestsPerSec float64 `json:"requestsPerSec"`
	// Colorings counts full-coloring responses served (color requests,
	// including coalesced ones and cache-miss reopens); ColoringsPerSec is
	// the sustained rate over the run.
	Colorings       int     `json:"colorings"`
	ColoringsPerSec float64 `json:"coloringsPerSec"`
	// RecoloredNodes sums Response.Recolored over churn epochs.
	RecoloredNodes int64 `json:"recoloredNodes"`

	// Server-side counters (from the stats op after the run).
	MeanBatch float64 `json:"meanBatch"`
	Coalesced int64   `json:"coalesced"`
	Evictions int64   `json:"evictions"`
}

// splitmix64 is the load driver's per-worker schedule stream (the same
// generator the fault injector uses).
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix64) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// RunLoad builds an in-process server shaped by the spec, replays the mix
// against it with per-worker Clients, and tears it down.
func RunLoad(spec LoadSpec) (LoadReport, error) {
	srv := NewServer(Options{
		ResidentBudget:  spec.Budget,
		Unbatched:       spec.Unbatched,
		BatchMax:        spec.BatchMax,
		Workers:         spec.Workers,
		QueueDepth:      spec.QueueDepth,
		InflightBudget:  spec.InflightBudget,
		QuarantineAfter: spec.QuarantineAfter,
		ChaosPanic:      PanicPlan(spec.Chaos.Seed, spec.Chaos.PanicFraction),
	})
	defer srv.Close()
	return RunLoadWith(func() Transport { return srv.NewClient() }, spec)
}

// RunLoadWith replays the mix through caller-supplied transports (one per
// worker) — the entry point cmd/d2load uses to drive a remote HTTP server
// with the identical schedule.
func RunLoadWith(newTransport func() Transport, spec LoadSpec) (LoadReport, error) {
	if spec.Sessions <= 0 || spec.Requests <= 0 {
		return LoadReport{}, fmt.Errorf("serve: load spec needs sessions and requests")
	}
	if spec.Concurrency <= 0 {
		spec.Concurrency = 1
	}
	setup := newTransport()
	var resp Response
	for i := 0; i < spec.Sessions; i++ {
		req := Request{Op: OpOpen, Session: sessionKey(i), Spec: spec.sessionSpec(i)}
		if err := setup.Do(&req, &resp); err != nil {
			return LoadReport{}, fmt.Errorf("serve: load setup open %s: %w", req.Session, err)
		}
		req = Request{Op: OpColor, Session: sessionKey(i), Algorithm: spec.algorithm(), Seed: spec.Seed}
		if err := setup.Do(&req, &resp); err != nil {
			return LoadReport{}, fmt.Errorf("serve: load setup color %s: %w", req.Session, err)
		}
	}

	workers := make([]*loadWorker, spec.Concurrency)
	per := spec.Requests / spec.Concurrency
	extra := spec.Requests % spec.Concurrency
	for w := range workers {
		n := per
		if w < extra {
			n++
		}
		tr := newTransport()
		if spec.Chaos.transportActive() {
			// One chaos stream per worker, disjoint from the schedule stream:
			// injected faults never perturb which requests are issued.
			tr = NewChaosTransport(tr, spec.Chaos.forWorker(w))
		}
		workers[w] = &loadWorker{
			spec:      spec,
			transport: tr,
			rng:       splitmix64{state: spec.Seed ^ (uint64(w+1) * 0xa5a5a5a5a5a5a5a5)},
			jitter:    splitmix64{state: spec.Seed ^ (uint64(w+1) * 0xc6a4a7935bd1e995)},
			budget:    n,
			latencies: make([]time.Duration, 0, n),
		}
	}
	start := time.Now()
	done := make(chan struct{})
	for _, w := range workers {
		go func(w *loadWorker) {
			w.run()
			done <- struct{}{}
		}(w)
	}
	for range workers {
		<-done
	}
	elapsed := time.Since(start)

	rep := LoadReport{
		Mix:         spec.Mix,
		Sessions:    spec.Sessions,
		Nodes:       spec.N,
		Concurrency: spec.Concurrency,
		Unbatched:   spec.Unbatched,
		Elapsed:     elapsed,
	}
	var all, accepted []time.Duration
	byOp := map[Op][]time.Duration{}
	for _, w := range workers {
		for i, op := range w.ops {
			byOp[op] = append(byOp[op], w.latencies[i])
		}
		all = append(all, w.latencies...)
		accepted = append(accepted, w.accepted...)
		rep.Requests += len(w.latencies)
		rep.Errors += w.errors
		rep.Reopens += w.reopens
		rep.Colorings += w.colorings
		rep.RecoloredNodes += w.recolored
		rep.Retried += w.retried
		rep.Shed += w.shed
		rep.Canceled += w.canceled
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50 = quantile(all, 0.50)
	rep.P95 = quantile(all, 0.95)
	rep.P99 = quantile(all, 0.99)
	if len(all) > 0 {
		rep.Max = all[len(all)-1]
	}
	opP50 := func(op Op) time.Duration {
		lat := byOp[op]
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return quantile(lat, 0.50)
	}
	rep.ColorP50, rep.VerifyP50, rep.RecolorP50 = opP50(OpColor), opP50(OpVerify), opP50(OpRecolor)
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	rep.AcceptedP50 = quantile(accepted, 0.50)
	rep.AcceptedP95 = quantile(accepted, 0.95)
	rep.AcceptedP99 = quantile(accepted, 0.99)
	if secs := elapsed.Seconds(); secs > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / secs
		rep.ColoringsPerSec = float64(rep.Colorings) / secs
	}
	// Server-side counters via the stats op — works identically for the
	// in-process and remote transports.
	statsReq := Request{Op: OpStats}
	if err := setup.Do(&statsReq, &resp); err == nil && resp.Stats != nil {
		// Server-wide counts: per-session rows cover only the sessions
		// still resident, and eviction churn can drop the hot session's.
		rep.Coalesced = resp.Stats.Coalesced
		if b := resp.Stats.Batches; b > 0 {
			rep.MeanBatch = float64(resp.Stats.Executed) / float64(b)
		}
		rep.Evictions = resp.Stats.Evicted
		rep.ServerShed = resp.Stats.Shed
		rep.ServerPanics = resp.Stats.Panics
		rep.Quarantined = resp.Stats.Quarantined
	}
	return rep, nil
}

func sessionKey(i int) string { return fmt.Sprintf("s%d", i) }

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// loadWorker is one closed-loop client: it issues its request budget
// sequentially, reopening evicted sessions (the cache-miss path) and
// recording one latency per request.
type loadWorker struct {
	spec      LoadSpec
	transport Transport
	rng       splitmix64 // schedule stream: which requests to issue
	jitter    splitmix64 // backoff stream: retry jitter only, never the schedule
	budget    int

	latencies []time.Duration
	ops       []Op            // the op of each latency
	accepted  []time.Duration // latencies of ultimately-successful requests
	errors    int
	reopens   int
	colorings int
	recolored int64
	retried   int
	shed      int
	canceled  int
}

func (w *loadWorker) run() {
	var req Request
	var resp Response
	for i := 0; i < w.budget; i++ {
		idx := 0
		if w.rng.float64() >= w.spec.Hot {
			idx = w.rng.intn(w.spec.Sessions)
		}
		ses := sessionKey(idx)
		r := w.rng.float64()
		switch {
		case r < w.spec.VerifyFraction:
			req = Request{Op: OpVerify, Session: ses}
		case r < w.spec.VerifyFraction+w.spec.RecolorFraction:
			corrupt := w.spec.Corrupt
			if corrupt <= 0 {
				corrupt = 1
			}
			req = Request{Op: OpRecolor, Session: ses, Corrupt: corrupt, Seed: w.rng.next()}
		default:
			seed := w.spec.Seed + w.rng.next()%w.spec.colorSeeds()
			req = Request{Op: OpColor, Session: ses, Algorithm: w.spec.algorithm(), Seed: seed}
		}
		req.DeadlineMillis = w.spec.DeadlineMillis
		start := time.Now()
		err := w.attempt(&req, &resp, ses)
		for retry := 0; retry < w.spec.Retries && transientError(err); retry++ {
			// Transient rejection (503 family, deadline cancel, or an
			// eviction-churn race): back off with capped exponential + jitter,
			// then retry. The jitter draws come from a stream disjoint from
			// the schedule stream, so retry timing never changes which
			// requests this worker issues.
			w.retried++
			w.backoff(retry)
			err = w.attempt(&req, &resp, ses)
		}
		lat := time.Since(start)
		w.latencies = append(w.latencies, lat)
		w.ops = append(w.ops, req.Op)
		if err != nil {
			w.errors++
			switch {
			case errors.Is(err, ErrCanceled):
				w.canceled++
			case transientError(err):
				w.shed++
			}
			continue
		}
		w.accepted = append(w.accepted, lat)
		switch req.Op {
		case OpColor:
			w.colorings++
		case OpRecolor:
			w.recolored += int64(resp.Recolored)
		}
	}
}

// maxReopens bounds the cold-path cycles of one attempt (see attempt).
const maxReopens = 8

// attempt is one issue of the request, including the reopen-on-cache-miss
// path (an evicted or quarantined session looks like one that never existed).
func (w *loadWorker) attempt(req *Request, resp *Response, ses string) error {
	err := w.transport.Do(req, resp)
	for cycle := 0; coldSession(err) && cycle < maxReopens; cycle++ {
		// The session was evicted under the resident budget, or another
		// worker's reopen has re-created it and its initial color is still
		// in flight: reopen and recolor it — the cold path a cache miss
		// costs a real client — then retry, all inside this request's
		// latency window. Under eviction churn the reopened session can be
		// evicted again before the retry lands; from the second cycle on a
		// jittered backoff first lets the competing reopens settle.
		if cycle > 0 {
			w.backoff(cycle - 1)
		}
		ok, reopenErr := w.reopen(ses)
		if !ok {
			if retryableError(reopenErr) {
				// The reopen itself was rejected transiently (e.g. the recolor
				// shed against a full queue): surface that instead of the
				// unknown-session it caused, so the outer backoff loop retries
				// the whole request rather than giving up on the session.
				return reopenErr
			}
			break
		}
		w.reopens++
		err = w.transport.Do(req, resp)
	}
	return err
}

// coldSession matches the errors a reopen fixes: the session is gone
// (evicted or quarantined), or it exists but has no coloring yet.
func coldSession(err error) bool {
	return errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrNotColored)
}

// retryableError matches the outcomes a client-side retry can fix: transient
// 503s, deadline cancels, and the not-colored window while a concurrent
// worker's reopen has re-created the session but its initial color is still
// in flight (attempt's reopen cycles try that first). Unknown-session is
// handled by reopen inside attempt, and hard errors (bad request, closed
// server) never retry.
func retryableError(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrQuarantined) || errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrNotColored)
}

// transientError additionally covers an unknown-session that survived the
// reopen attempts — under heavy eviction churn the reopened session can be
// evicted again before the request lands, and a fresh backoff + reopen cycle
// is exactly what a real client would do.
func transientError(err error) bool {
	return retryableError(err) || errors.Is(err, ErrUnknownSession)
}

// backoff sleeps the capped exponential delay for the given retry ordinal:
// base·2^retry capped at 16·base, scaled by a jitter factor in [0.5, 1.5).
func (w *loadWorker) backoff(retry int) {
	base := w.spec.RetryBase
	if base <= 0 {
		base = 200 * time.Microsecond
	}
	d := base << uint(retry)
	if max := 16 * base; d > max {
		d = max
	}
	time.Sleep(time.Duration((0.5 + w.jitter.float64()) * float64(d)))
}

// reopen rebuilds an evicted session (open + initial color). A concurrent
// worker may win the race; ErrSessionExists means the session is back either
// way. On failure it reports the blocking error so the caller can tell a
// transient rejection (shed recolor under overload) from a hard one.
func (w *loadWorker) reopen(ses string) (bool, error) {
	var resp Response
	idx := 0
	fmt.Sscanf(ses, "s%d", &idx)
	req := Request{Op: OpOpen, Session: ses, Spec: w.spec.sessionSpec(idx)}
	if err := w.transport.Do(&req, &resp); err != nil && !errors.Is(err, ErrSessionExists) {
		return false, err
	}
	req = Request{Op: OpColor, Session: ses, Algorithm: w.spec.algorithm(), Seed: w.spec.Seed}
	if err := w.transport.Do(&req, &resp); err != nil && !errors.Is(err, ErrUnknownSession) {
		return false, err
	}
	return true, nil
}

// estimateSessionBytes mirrors the server's admission estimate (the
// graphgen closed forms) so the standard mixes can size eviction-exercising
// budgets deterministically.
func estimateSessionBytes(n int, m float64) int64 {
	return int64(graph.EstimateResidency(float64(n), m).Total())
}

// StandardMixes returns the four named reference mixes of experiment E13 —
// {many-small-graphs, one-huge-graph} × {query-heavy, churn-heavy} — at full
// or quick scale. The many-small mixes run under a resident budget of ~70%
// of the population, so LRU eviction and the reopen cold path are part of
// the measured distribution; the one-huge mixes hold a single resident
// session and measure pure warm-path latency.
func StandardMixes(quick bool) []LoadSpec {
	smallN, smallSessions, smallReqs := 2000, 12, 4000
	hugeN, hugeReqs := 30000, 1500
	conc := 8
	churnReqs, hugeChurnReqs := 1500, 600
	if quick {
		smallN, smallSessions, smallReqs = 600, 6, 400
		hugeN, hugeReqs = 4000, 250
		conc = 4
		churnReqs, hugeChurnReqs = 250, 120
	}
	const baM = 3
	smallEdges := float64(baM*(baM+1)/2 + (smallN-baM-1)*baM)
	smallBudget := estimateSessionBytes(smallN, smallEdges) * int64(smallSessions) * 7 / 10
	return []LoadSpec{
		{
			Mix: "many-small/query", Sessions: smallSessions, Family: "ba", N: smallN, Deg: baM,
			Requests: smallReqs, Concurrency: conc,
			VerifyFraction: 0.82, RecolorFraction: 0.06, Corrupt: 4, ColorSeeds: 1, Hot: 0.5,
			Seed: 1, Budget: smallBudget,
		},
		{
			Mix: "many-small/churn", Sessions: smallSessions, Family: "ba", N: smallN, Deg: baM,
			Requests: churnReqs, Concurrency: conc,
			VerifyFraction: 0.15, RecolorFraction: 0.78, Corrupt: 8, ColorSeeds: 4,
			Seed: 2, Budget: smallBudget,
		},
		{
			Mix: "one-huge/query", Sessions: 1, Family: "gnp", N: hugeN, Deg: 8,
			Requests: hugeReqs, Concurrency: conc,
			VerifyFraction: 0.9, RecolorFraction: 0.06, Corrupt: 16, ColorSeeds: 1,
			Seed: 3,
		},
		{
			Mix: "one-huge/churn", Sessions: 1, Family: "gnp", N: hugeN, Deg: 8,
			Requests: hugeChurnReqs, Concurrency: conc,
			VerifyFraction: 0.12, RecolorFraction: 0.84, Corrupt: 32, ColorSeeds: 1,
			Seed: 4,
		},
	}
}
