// Package serve is the long-lived serving plane: warm per-graph sessions
// behind a request API, the shape every reuse mechanism in the repository
// (Engine.Reset, pooled trial kernels, 0-alloc warmed verify, ball-confined
// repair) was built for but that the one-shot CLIs never exercise.
//
// A Server holds a cache of sessions keyed by client-chosen names. Each
// session owns a built CSR and, built lazily on first use, a resident warm
// trial kernel (and through it a congest.Engine), a pooled verify.Checker,
// and a repair.Session — and is driven by exactly one goroutine (per-session
// affinity), so the warm kernels run without any locking on the hot path.
// Requests against the same session that are queued at dispatch time are
// executed as one batch; read-shaped requests inside a batch window
// (verify, and repeat color requests with the same algorithm and seed) are
// coalesced into a single kernel pass, which is where batched dispatch beats
// unbatched on query-heavy mixes.
//
// The cache is bounded by a resident-bytes budget using the same closed-form
// estimates as `graphgen -estimate` (graph.EstimateResidency): opening a
// session past the budget evicts least-recently-used sessions first. Every
// evicted or closed session shuts its worker down and closes its kernels —
// the engine-close lifecycle tests pin that no goroutine or kernel outlives
// its session.
//
// Responses are byte-identical to direct library calls: a color request
// reports the same coloring hash, palette, and engine metrics as
// alg.Get(name).Run on a fresh graph; a recolor request matches a direct
// repair.Session fed the same fault script. Warm verify and recolor requests
// perform zero heap allocations (enforced the same way the trial and verify
// planes enforce it).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"d2color/internal/alg"
	"d2color/internal/congest"
	"d2color/internal/graph"
)

// Op names a request operation.
type Op string

const (
	// OpOpen builds a session: generates the spec's graph and admits it into
	// the cache (evicting LRU sessions if the budget requires).
	OpOpen Op = "open"
	// OpColor runs a registry algorithm on the session's graph and installs
	// the result as the session's working coloring.
	OpColor Op = "color"
	// OpVerify checks the working coloring against the distance-2 constraint
	// on the warm checker: a certified recheck of the nodes changed since
	// the last pass, falling back to a full check whenever the session
	// cannot vouch for its change list. Zero allocations warm.
	OpVerify Op = "verify"
	// OpRecolor is a churn epoch: corrupt-and-repair (Corrupt > 0), repair an
	// explicit dirty set (Dirty), or a full Stabilize sweep (neither). Zero
	// allocations warm for the explicit-dirty path.
	OpRecolor Op = "recolor"
	// OpStats snapshots the server and per-session counters.
	OpStats Op = "stats"
	// OpClose tears one session down.
	OpClose Op = "close"
)

// Request is one operation against the server. The zero value of unused
// fields is fine; Session names the target for everything except OpStats
// (where it is optional and ignored).
type Request struct {
	Op      Op     `json:"op"`
	Session string `json:"session,omitempty"`
	// Spec describes the graph to build (OpOpen only).
	Spec *graph.GeneratorSpec `json:"spec,omitempty"`
	// Algorithm is a registry name (OpColor; default "relaxed").
	Algorithm string `json:"algorithm,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Dirty is an explicit dirty set for OpRecolor.
	Dirty []graph.NodeID `json:"dirty,omitempty"`
	// Corrupt, for OpRecolor, corrupts this many uniformly chosen colors
	// (seeded by Seed) before repairing them — the fault-injection epoch.
	Corrupt int `json:"corrupt,omitempty"`
	// DeadlineMillis is an optional per-request deadline: once it elapses, a
	// queued request fails with ErrCanceled before touching a kernel, and an
	// executing request's kernels stop cooperatively within O(one simulated
	// round) and return ErrCanceled with whatever partial work was done
	// discarded. 0 (the default) means no deadline — and keeps the warm
	// dispatch path timer-free and allocation-free.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// Response is the result of one request. It carries only scalars on the hot
// paths (the coloring hash stands in for the coloring itself), so filling it
// never allocates. Hash is HashColors of the session's coloring: FNV-64a
// over the 8-byte little-endian FNV-64a digests of its 256-node blocks,
// comparable across serve/direct runs through HashColors (it is not the
// registry golden's flat FNV-64a). A Corrupt or Dirty recolor updates it
// in O(changed nodes × 256 + n/256).
type Response struct {
	Op      Op     `json:"op"`
	Session string `json:"session,omitempty"`

	// OpOpen.
	Nodes          int   `json:"nodes,omitempty"`
	Edges          int   `json:"edges,omitempty"`
	EstimatedBytes int64 `json:"estimatedBytes,omitempty"`

	// OpColor / OpVerify / OpRecolor.
	Algorithm   string          `json:"algorithm,omitempty"`
	Hash        uint64          `json:"hash,omitempty"`
	PaletteSize int             `json:"paletteSize,omitempty"`
	ColorsUsed  int             `json:"colorsUsed,omitempty"`
	Valid       bool            `json:"valid,omitempty"`
	MaxColor    int             `json:"maxColor,omitempty"`
	Metrics     congest.Metrics `json:"metrics,omitzero"`

	// OpRecolor.
	Dirty      int  `json:"dirty,omitempty"`
	Ball       int  `json:"ball,omitempty"`
	Recolored  int  `json:"recolored,omitempty"`
	Phases     int  `json:"phases,omitempty"`
	Iterations int  `json:"iterations,omitempty"`
	Complete   bool `json:"complete,omitempty"`

	// OpStats.
	Stats *Stats `json:"stats,omitempty"`
}

// Sentinel errors; the HTTP layer maps them to codes and back, so a remote
// client can discriminate (e.g. reopen after ErrUnknownSession — an evicted
// session looks exactly like one that never existed).
var (
	ErrServerClosed   = errors.New("serve: server closed")
	ErrUnknownSession = errors.New("serve: unknown session")
	ErrSessionExists  = errors.New("serve: session already exists")
	ErrNotColored     = errors.New("serve: session has no working coloring yet (issue a color request first)")
	ErrBadRequest     = errors.New("serve: bad request")
	// ErrOverloaded is the shed signal: the session's bounded queue is full,
	// or admitting the request would push the in-flight resident-bytes
	// estimate past Options.InflightBudget. The HTTP layer maps it to
	// 503 + Retry-After; clients back off and retry.
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrDraining rejects new work while Server.Drain runs; the HTTP layer
	// maps it to 503 + Retry-After so a load balancer fails the instance over.
	ErrDraining = errors.New("serve: server draining")
	// ErrCanceled reports a request stopped by its deadline, a disconnected
	// HTTP client, or a drain hard-cancel — before or during kernel work.
	ErrCanceled = errors.New("serve: request canceled")
	// ErrPanicked reports that the session worker recovered a panic while
	// executing this request. Only the in-flight request fails; the session
	// survives unless the panic streak reaches Options.QuarantineAfter.
	ErrPanicked = errors.New("serve: request failed: worker panic")
	// ErrQuarantined reports that the session was evicted after too many
	// consecutive worker panics; queued requests are failed with it. The
	// session key is free again — clients reopen, as with any eviction.
	ErrQuarantined = errors.New("serve: session quarantined after repeated panics")
)

// Options configures a Server.
type Options struct {
	// ResidentBudget bounds the summed residency estimates of cached
	// sessions, in bytes; opening past it evicts least-recently-used
	// sessions first. 0 means unlimited. A single session larger than the
	// whole budget is still admitted (after evicting everything else):
	// refusing it would make the one-huge-graph workload unservable.
	ResidentBudget int64
	// BatchMax bounds how many queued same-session requests one dispatch
	// window executes; 0 means 64.
	BatchMax int
	// Unbatched disables the dispatch window entirely (one request per
	// wakeup, no coalescing) — the control arm of the batching benchmarks.
	Unbatched bool
	// Workers is the engine worker count of the session kernels (≤ 1 runs
	// rounds inline on the session's goroutine; byte-identical results
	// either way).
	Workers int
	// QueueDepth bounds how many requests may be queued or executing against
	// one session at a time; a request arriving past the bound is shed with
	// ErrOverloaded instead of blocking its dispatcher. 0 means 1024.
	QueueDepth int
	// InflightBudget bounds the summed residency estimates of sessions with
	// work queued or executing, in bytes: a request that would wake an idle
	// session while the in-flight estimate already exceeds the budget is
	// shed with ErrOverloaded. Sessions with work in flight admit more
	// requests freely (their bytes are already resident and counted once).
	// A single session larger than the whole budget still gets work when
	// nothing else is in flight. 0 means unlimited.
	InflightBudget int64
	// QuarantineAfter is the consecutive-panic threshold after which a
	// session is quarantined: removed from the cache through the same
	// provably-closing shutdown path as an eviction, its queued requests
	// failed with ErrQuarantined. Any successfully served request resets the
	// streak. 0 means 3; negative disables quarantine.
	QuarantineAfter int
	// ChaosPanic is the chaos harness's fault hook: when set, the session
	// worker calls it just before executing each request and panics (inside
	// its recovery scope) when it returns true. Deterministic plans live in
	// chaos.go. Nil in production.
	ChaosPanic func(req *Request) bool
}

func (o Options) batchMax() int {
	if o.BatchMax <= 0 {
		return 64
	}
	return o.BatchMax
}

func (o Options) queueDepth() int {
	if o.QueueDepth <= 0 {
		return 1024
	}
	return o.QueueDepth
}

func (o Options) quarantineAfter() int {
	if o.QuarantineAfter == 0 {
		return 3
	}
	return o.QuarantineAfter
}

// Server is the session cache plus dispatcher. All methods are safe for
// concurrent use.
type Server struct {
	opts Options

	mu       sync.RWMutex
	closed   bool
	sessions map[string]*session

	clock    atomic.Int64 // LRU recency ticks
	estTotal atomic.Int64 // summed residency estimates of cached sessions

	opened    atomic.Int64
	evicted   atomic.Int64
	shutdowns atomic.Int64 // workers fully shut down (kernels closed)
	requests  atomic.Int64
	coalesced atomic.Int64 // summed over every session, evicted ones too
	batches   atomic.Int64 // dispatch windows that ran requests, every session
	executed  atomic.Int64 // requests run by session workers, every session

	// Overload/failure plane counters and state.
	shed          atomic.Int64 // requests rejected with ErrOverloaded
	canceled      atomic.Int64 // requests that ended in ErrCanceled
	panics        atomic.Int64 // worker panics recovered
	quarantined   atomic.Int64 // sessions evicted by the panic quarantine
	inflight      atomic.Int64 // session requests dispatched, not yet answered
	inflightBytes atomic.Int64 // summed est of sessions with work in flight
	draining      atomic.Bool  // Drain started: admission rejects new work
	hardCancel    atomic.Bool  // Drain deadline passed: cancel all in-flight work

	wg       sync.WaitGroup
	callPool sync.Pool
}

// NewServer builds an empty server.
func NewServer(opts Options) *Server {
	s := &Server{opts: opts, sessions: make(map[string]*session)}
	s.callPool.New = func() any { return newCall() }
	return s
}

// call is the envelope a request travels in: pre-allocated (pooled or owned
// by a Client), so enqueueing is allocation-free.
//
// cancel, when non-nil, is the request's cooperative cancel flag. It is a
// pointer to a flag owned by this request — not a flag embedded in the call —
// so a late time.AfterFunc or context.AfterFunc callback can only ever touch
// its own request's flag, never a pooled call already reused by the next one.
// Entry points reset the pointer before dispatch; the deadline path composes
// onto an already-installed flag (DoContext's context link) instead of
// replacing it.
type call struct {
	req      *Request
	resp     *Response
	err      error
	shutdown bool // sentinel: drain, close kernels, exit
	cancel   atomic.Pointer[atomic.Bool]
	done     chan struct{}
}

func newCall() *call {
	return &call{done: make(chan struct{}, 1)}
}

// Client is a per-goroutine handle whose Do is allocation-free once warm: it
// owns a reusable call envelope. A Client must not be used concurrently;
// create one per goroutine (they are cheap).
type Client struct {
	srv *Server
	c   call
}

// NewClient returns a dedicated client handle for hot request loops.
func (s *Server) NewClient() *Client {
	cl := &Client{srv: s}
	cl.c.done = make(chan struct{}, 1)
	return cl
}

// Do executes one request, filling resp (cleared first). resp must outlive
// the call only; the client may reuse both req and resp immediately after.
func (cl *Client) Do(req *Request, resp *Response) error {
	c := &cl.c
	c.req, c.resp, c.err = req, resp, nil
	c.cancel.Store(nil) // drop any stale flag from a previous deadline
	return cl.srv.dispatch(c)
}

// Do executes one request using a pooled envelope — the convenience entry
// point for control-plane callers and the HTTP layer. Hot loops should
// prefer a Client.
func (s *Server) Do(req *Request, resp *Response) error {
	c := s.callPool.Get().(*call)
	c.req, c.resp, c.err = req, resp, nil
	c.cancel.Store(nil)
	err := s.dispatch(c)
	c.req, c.resp = nil, nil
	s.callPool.Put(c)
	return err
}

// DoContext is Do with a cancellation link: once ctx is done, the request's
// cancel flag trips and the worker abandons it cooperatively (ErrCanceled) —
// the HTTP layer uses it so a disconnected client stops burning kernel time.
// It always uses a fresh (non-pooled) envelope: the context callback may run
// after DoContext returns, and must never touch a reused call.
func (s *Server) DoContext(ctx context.Context, req *Request, resp *Response) error {
	if ctx == nil || ctx.Done() == nil {
		return s.Do(req, resp)
	}
	c := newCall()
	c.req, c.resp = req, resp
	flag := new(atomic.Bool)
	c.cancel.Store(flag)
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	defer stop()
	return s.dispatch(c)
}

func (s *Server) dispatch(c *call) error {
	s.requests.Add(1)
	req, resp := c.req, c.resp
	*resp = Response{Op: req.Op, Session: req.Session}
	switch req.Op {
	case OpOpen:
		return s.open(req, resp)
	case OpClose:
		return s.closeSession(req.Session)
	case OpStats:
		resp.Stats = s.statsSnapshot()
		return nil
	case OpColor, OpVerify, OpRecolor:
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadRequest, req.Op)
	}
	// Session ops. The in-flight count brackets everything from admission to
	// answer, and is incremented before the draining check: Drain first sets
	// draining, then polls inflight to zero, so every request that slipped
	// past the draining check is already visible to the poll — no waiter is
	// ever stranded by a drain.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	// Look up and enqueue while holding the read lock, so an evictor (which
	// takes the write lock before sending the shutdown sentinel) can never
	// observe the session in the map while a sender is still about to
	// enqueue. The wait itself happens lock-free.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrServerClosed
	}
	if s.draining.Load() {
		s.mu.RUnlock()
		return ErrDraining
	}
	ses := s.sessions[req.Session]
	if ses == nil {
		s.mu.RUnlock()
		return ErrUnknownSession
	}
	ses.lastUsed.Store(s.clock.Add(1))
	// Admission control. pending counts this session's queued-or-executing
	// requests; the first one in also charges the session's residency
	// estimate to the server-wide in-flight bytes. Both shed paths undo
	// their increment before rejecting.
	p := ses.pending.Add(1)
	if p == 1 {
		s.inflightBytes.Add(ses.est)
	}
	if p > int64(s.opts.queueDepth()) {
		s.shedLocked(ses)
		return ErrOverloaded
	}
	if b := s.opts.InflightBudget; b > 0 && p == 1 {
		// Waking an idle session must fit the in-flight byte budget — unless
		// this session alone exceeds it and nothing else is in flight
		// (mirroring the resident budget's one-huge-graph rule).
		if total := s.inflightBytes.Load(); total > b && total > ses.est {
			s.shedLocked(ses)
			return ErrOverloaded
		}
	}
	// The send cannot block: pending ≤ queueDepth is enforced above and the
	// channel has queueDepth+1 capacity — the spare slot keeps the shutdown
	// sentinel's lock-held send non-blocking too (see evictLRULocked).
	ses.reqs <- c
	s.mu.RUnlock()

	// A deadline arms a timer against the request's cancel flag. Composes
	// with a flag DoContext already installed; allocates only on this path,
	// so deadline-free warm requests stay 0 allocs/op.
	if req.DeadlineMillis > 0 {
		flag := c.cancel.Load()
		if flag == nil {
			flag = new(atomic.Bool)
			c.cancel.Store(flag)
		}
		timer := time.AfterFunc(time.Duration(req.DeadlineMillis)*time.Millisecond,
			func() { flag.Store(true) })
		<-c.done
		timer.Stop()
		return c.err
	}
	<-c.done
	return c.err
}

// shedLocked undoes an admission increment and accounts one shed request.
// Caller holds s.mu.RLock (released here).
func (s *Server) shedLocked(ses *session) {
	if ses.pending.Add(-1) == 0 {
		s.inflightBytes.Add(-ses.est)
	}
	ses.nShed.Add(1)
	s.shed.Add(1)
	s.mu.RUnlock()
}

// open refuses a spec whose closed-form size exceeds the session limits,
// generates the spec's graph, admits the session under the budget (evicting
// LRU sessions as needed), and starts its worker.
func (s *Server) open(req *Request, resp *Response) error {
	if req.Session == "" {
		return fmt.Errorf("%w: open needs a session name", ErrBadRequest)
	}
	if req.Spec == nil {
		return fmt.Errorf("%w: open needs a graph spec", ErrBadRequest)
	}
	nodes, edges, err := req.Spec.Size()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if nodes > MaxSessionNodes || edges > MaxSessionEdges {
		return fmt.Errorf("%w: spec %s has %.0f nodes and %.0f edges, over the session limit of %d nodes and %d edges",
			ErrBadRequest, req.Spec, nodes, edges, MaxSessionNodes, MaxSessionEdges)
	}
	g, err := req.Spec.Generate()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	n, m := g.NumNodes(), g.NumEdges()
	// The closed-form estimate `graphgen -estimate` prints.
	est := int64(graph.EstimateResidency(float64(n), float64(m)).Total())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if s.draining.Load() {
		s.mu.Unlock()
		return ErrDraining
	}
	if _, ok := s.sessions[req.Session]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSessionExists, req.Session)
	}
	if budget := s.opts.ResidentBudget; budget > 0 {
		for s.estTotal.Load()+est > budget && len(s.sessions) > 0 {
			s.evictLRULocked()
		}
	}
	ses := &session{
		srv: s,
		key: req.Session,
		g:   g,
		est: est,
		// One slot beyond the admission bound: dispatch sheds past
		// queueDepth pending requests, so the extra slot is reserved for the
		// shutdown sentinel — its lock-held send can never block on a full
		// queue (which would deadlock against a worker waiting for the same
		// lock to quarantine itself).
		reqs: make(chan *call, s.opts.queueDepth()+1),
	}
	ses.cancelFn = ses.canceledNow
	ses.lastUsed.Store(s.clock.Add(1))
	s.sessions[req.Session] = ses
	s.estTotal.Add(est)
	s.opened.Add(1)
	s.wg.Add(1)
	go ses.loop()
	s.mu.Unlock()

	resp.Nodes, resp.Edges, resp.EstimatedBytes = n, m, est
	return nil
}

// evictLRULocked removes the least-recently-used session from the map and
// sends its worker the shutdown sentinel. Caller holds s.mu.
func (s *Server) evictLRULocked() {
	var victim *session
	for _, ses := range s.sessions {
		if victim == nil || ses.lastUsed.Load() < victim.lastUsed.Load() {
			victim = ses
		}
	}
	if victim == nil {
		return
	}
	delete(s.sessions, victim.key)
	s.estTotal.Add(-victim.est)
	s.evicted.Add(1)
	// Holding the write lock guarantees no dispatcher is mid-enqueue, so
	// the sentinel is the last call the worker ever receives; it drains the
	// queue ahead of it, closes its kernels and exits. The send never
	// blocks: admission bounds pending requests to queueDepth and the
	// channel keeps one spare slot for exactly this sentinel.
	victim.reqs <- &call{shutdown: true, done: make(chan struct{}, 1)}
}

// removeQuarantined pulls ses out of the cache on behalf of its own worker
// after a panic streak. It returns true when the worker now owns the
// shutdown (drain the queue, close kernels, exit); false when an evictor or
// Close removed the session first — a sentinel is already queued (sentinel
// sends happen under the write lock, before this acquires it), and the
// worker proceeds normally until it reads it.
func (s *Server) removeQuarantined(ses *session) bool {
	s.mu.Lock()
	if s.sessions[ses.key] != ses {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, ses.key)
	s.estTotal.Add(-ses.est)
	s.quarantined.Add(1)
	s.mu.Unlock()
	return true
}

// closeSession tears one session down and waits for its worker to finish
// closing the kernels.
func (s *Server) closeSession(key string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	ses, ok := s.sessions[key]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownSession
	}
	delete(s.sessions, key)
	s.estTotal.Add(-ses.est)
	sentinel := &call{shutdown: true, done: make(chan struct{}, 1)}
	ses.reqs <- sentinel
	s.mu.Unlock()
	<-sentinel.done
	return nil
}

// Draining reports whether Drain has started; the HTTP layer flips /healthz
// to 503 on it so load balancers hand traffic off.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully winds the server down: it stops admitting new work
// (session ops and opens fail with ErrDraining; stats and closes still
// serve), waits for every in-flight request to finish, then closes the
// server. If ctx expires first, the remaining in-flight requests are
// hard-canceled — every kernel polls the drain flag between simulated
// rounds, so they unwind within O(one round) and their callers get
// ErrCanceled — and Drain returns ctx.Err() after the (now prompt) close.
// Either way, every session's worker has exited and every engine is closed
// when Drain returns. Idempotent; concurrent calls all block until the
// close completes.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	const poll = 200 * time.Microsecond
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			// Deadline: flip the server-wide hard-cancel every per-call
			// cancel check consults, then wait out the O(one round) unwind.
			s.hardCancel.Store(true)
			for s.inflight.Load() > 0 {
				time.Sleep(poll)
			}
			s.Close()
			return ctx.Err()
		default:
			time.Sleep(poll)
		}
	}
	s.Close()
	return nil
}

// Close shuts every session down (closing all kernels) and rejects further
// requests. It blocks until every worker has exited.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for key, ses := range s.sessions {
		delete(s.sessions, key)
		s.estTotal.Add(-ses.est)
		ses.reqs <- &call{shutdown: true, done: make(chan struct{}, 1)}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// SessionStats is one session's counter snapshot. QueueDepth is the number
// of requests queued or executing against the session at snapshot time;
// Shed/Canceled/Panics are the session's slices of the overload counters.
type SessionStats struct {
	Session         string `json:"session"`
	Nodes           int    `json:"nodes"`
	Edges           int    `json:"edges"`
	EstimatedBytes  int64  `json:"estimatedBytes"`
	Requests        int64  `json:"requests"`
	Color           int64  `json:"color"`
	Verify          int64  `json:"verify"`
	Recolor         int64  `json:"recolor"`
	Batches         int64  `json:"batches"`
	BatchedRequests int64  `json:"batchedRequests"`
	MaxBatch        int64  `json:"maxBatch"`
	Coalesced       int64  `json:"coalesced"`
	QueueDepth      int64  `json:"queueDepth"`
	Shed            int64  `json:"shed"`
	Canceled        int64  `json:"canceled"`
	Panics          int64  `json:"panics"`
}

// Stats is a point-in-time snapshot of the server counters — the payload of
// OpStats and of the expvar hook. The whole snapshot is assembled under one
// session read-lock acquisition, so the server-wide counters and the
// per-session rows describe a single consistent point: no open, eviction,
// quarantine or close can land between the fields (individual requests still
// tick atomics mid-snapshot — the lock is the structural consistency point,
// not a stop-the-world).
type Stats struct {
	Sessions         []SessionStats `json:"sessions"`
	Opened           int64          `json:"opened"`
	Evicted          int64          `json:"evicted"`
	Shutdown         int64          `json:"shutdown"` // workers fully exited, kernels closed
	Requests         int64          `json:"requests"`
	Coalesced        int64          `json:"coalesced"` // every session, evicted ones too
	Batches          int64          `json:"batches"`   // dispatch windows that ran requests, every session
	Executed         int64          `json:"executed"`  // requests run by session workers, every session
	Shed             int64          `json:"shed"`
	Canceled         int64          `json:"canceled"`
	Panics           int64          `json:"panics"`
	Quarantined      int64          `json:"quarantined"`
	QueueDepth       int64          `json:"queueDepth"` // summed session queue depths
	Inflight         int64          `json:"inflight"`
	InflightBytes    int64          `json:"inflightBytes"`
	InflightBudget   int64          `json:"inflightBudget"`
	ResidentEstimate int64          `json:"residentEstimate"`
	ResidentBudget   int64          `json:"residentBudget"`
	Draining         bool           `json:"draining,omitempty"`
	Unbatched        bool           `json:"unbatched,omitempty"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats { return *s.statsSnapshot() }

func (s *Server) statsSnapshot() *Stats {
	s.mu.RLock()
	st := &Stats{
		Opened:           s.opened.Load(),
		Evicted:          s.evicted.Load(),
		Shutdown:         s.shutdowns.Load(),
		Requests:         s.requests.Load(),
		Coalesced:        s.coalesced.Load(),
		Batches:          s.batches.Load(),
		Executed:         s.executed.Load(),
		Shed:             s.shed.Load(),
		Canceled:         s.canceled.Load(),
		Panics:           s.panics.Load(),
		Quarantined:      s.quarantined.Load(),
		Inflight:         s.inflight.Load(),
		InflightBytes:    s.inflightBytes.Load(),
		InflightBudget:   s.opts.InflightBudget,
		ResidentEstimate: s.estTotal.Load(),
		ResidentBudget:   s.opts.ResidentBudget,
		Draining:         s.draining.Load(),
		Unbatched:        s.opts.Unbatched,
	}
	for _, ses := range s.sessions {
		row := ses.statsSnapshot()
		st.QueueDepth += row.QueueDepth
		st.Sessions = append(st.Sessions, row)
	}
	s.mu.RUnlock()
	sortSessionStats(st.Sessions)
	return st
}

func sortSessionStats(ss []SessionStats) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].Session < ss[j-1].Session; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// resolveAlgorithm maps a request's algorithm name to a registry instance.
func resolveAlgorithm(name string) (alg.Algorithm, string, error) {
	if name == "" {
		name = "relaxed"
	}
	a, ok := alg.Get(name)
	if !ok {
		return nil, name, fmt.Errorf("%w: unknown algorithm %q", ErrBadRequest, name)
	}
	return a, name, nil
}
