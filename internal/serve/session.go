package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"d2color/internal/alg"
	"d2color/internal/coloring"
	"d2color/internal/fault"
	"d2color/internal/graph"
	"d2color/internal/repair"
	"d2color/internal/trial"
	"d2color/internal/verify"
)

// session is one cached graph plus its warm kernels, owned by exactly one
// worker goroutine: every field below the channel is touched only by the
// worker (per-session affinity), so the hot paths run without locks. The
// counters are atomics only because Stats reads them from other goroutines.
type session struct {
	srv      *Server
	key      string
	g        *graph.Graph
	est      int64
	reqs     chan *call
	lastUsed atomic.Int64
	pending  atomic.Int64 // queued-or-executing requests; the admission bound

	// cancelFn is canceledNow bound once at open, so installing it into the
	// warm kernels (trial runner, checker, repair session) never allocates.
	cancelFn func() bool

	// Worker-owned warm state, built lazily on first use.
	tk        *trial.Runner
	checker   *verify.Checker
	rs        *repair.Session
	inj       *fault.Injector // reseeded per Corrupt epoch
	colors    coloring.Coloring
	palette   int
	algorithm string
	memo      batchMemo
	// The verify certificate. touched lists every node whose color changed
	// since the checker's last pass (fed to RecheckD2). stale is set before
	// any mutation of the working coloring and cleared only once touched
	// describes it again, so a panic, cancel or error mid-mutation leaves it
	// set and the next verify rescans the whole coloring.
	touched []graph.NodeID
	stale   bool
	// The hash cache, under the same discipline: hash is the working
	// coloring's HashColors and digests its block digests while hashed is
	// set. hashed is cleared before any mutation and set again only by a
	// full rehash or by an update naming every node the mutation changed,
	// so after a failed mutation the next hash is a full pass.
	hash    uint64
	digests blockDigests
	hashed  bool
	// complete says the working coloring is known to color every node. It
	// is cleared before any mutation and set by a valid check or a complete
	// repair of a complete coloring; a Corrupt epoch on a complete coloring
	// then draws its victims without scanning for uncolored nodes.
	complete bool

	// Worker-owned failure state. cur is the request currently executing —
	// the kernels' cancel hook reads it between simulated rounds (always on
	// this worker's stack, so no lock). panicStreak counts consecutive
	// ErrPanicked requests; condemned persists a quarantine decision across
	// batches when an evictor beat removeQuarantined to the session.
	cur         *call
	panicStreak int
	condemned   bool

	nRequests atomic.Int64
	nColor    atomic.Int64
	nVerify   atomic.Int64
	nRecolor  atomic.Int64
	nBatches  atomic.Int64
	nBatched  atomic.Int64 // requests that shared a window with at least one other
	maxBatch  atomic.Int64
	coalesced atomic.Int64
	nShed     atomic.Int64
	nCanceled atomic.Int64
	nPanics   atomic.Int64
}

// canceledNow is the cooperative cancel hook every warm kernel polls (the
// trial runner and checker via SetCancel, the repair session via
// Options.Cancel). It runs on the worker goroutine between simulated rounds
// or scan strides: true once the server is hard-canceling (a drain past its
// deadline) or the current request's own cancel flag has tripped (deadline
// timer, disconnected HTTP client).
func (ses *session) canceledNow() bool {
	if ses.srv.hardCancel.Load() {
		return true
	}
	c := ses.cur
	if c == nil {
		return false
	}
	p := c.cancel.Load()
	return p != nil && p.Load()
}

// batchMemo caches read-shaped results within one dispatch window: verify
// responses, and the response of the last color request (keyed by resolved
// algorithm + seed — rerunning the same deterministic-by-seed algorithm on
// the same graph cannot change the answer). Mutating requests invalidate it;
// the memo never crosses a window boundary.
type batchMemo struct {
	verifyOK  bool
	verify    Response
	colorOK   bool
	colorAlg  string
	colorSeed uint64
	color     Response
}

// loop is the session worker: blocking receive, then (unless the server is
// unbatched) a non-blocking drain of whatever else is already queued, up to
// BatchMax — the dispatch window. No timers: the only concession is a single
// scheduler yield between the receive and the drain, so concurrent
// dispatchers that are about to park on their done channels get one chance
// to publish into the window first (without it, the channel send's runnext
// hand-off wakes the worker before any other producer has run, and windows
// degenerate to size one under GOMAXPROCS=1). One yield costs nanoseconds;
// a missed coalescing window costs a kernel pass.
func (ses *session) loop() {
	defer ses.srv.wg.Done()
	batchMax := ses.srv.opts.batchMax()
	batch := make([]*call, 0, batchMax)
	for c := range ses.reqs {
		batch = append(batch[:0], c)
		if !ses.srv.opts.Unbatched {
			runtime.Gosched()
		drain:
			for len(batch) < batchMax {
				select {
				case c2 := <-ses.reqs:
					batch = append(batch, c2)
				default:
					break drain
				}
			}
		}
		if ses.runBatch(batch) {
			return
		}
	}
}

// runBatch executes one dispatch window and reports whether the worker must
// exit — either the shutdown sentinel was seen or the worker quarantined its
// own session after a panic streak (kernels are closed in both cases).
func (ses *session) runBatch(batch []*call) (shutdown bool) {
	ses.nBatches.Add(1)
	if len(batch) > 1 || !batch[0].shutdown {
		// The server-wide count skips a window holding only the shutdown
		// sentinel: it runs no request.
		ses.srv.batches.Add(1)
	}
	if n := int64(len(batch)); n > 1 {
		ses.nBatched.Add(n)
		if n > ses.maxBatch.Load() {
			ses.maxBatch.Store(n)
		}
	} else if ses.maxBatch.Load() == 0 {
		ses.maxBatch.Store(1)
	}
	ses.memo = batchMemo{}
	quarantine := ses.condemned
	var sentinel *call
	for _, c := range batch {
		if c.shutdown {
			// The evictor sends the sentinel while holding the write lock,
			// after removing the session from the map — it is necessarily
			// the last call in the queue.
			sentinel = c
			continue
		}
		ses.nRequests.Add(1)
		ses.srv.executed.Add(1)
		if quarantine {
			// Already condemned this batch (or a previous one, if an evictor
			// won the removal race): fail fast, never touch the kernels again.
			c.err = ErrQuarantined
			ses.finish(c)
			continue
		}
		ses.serveOne(c)
		if errors.Is(c.err, ErrPanicked) {
			ses.panicStreak++
			if k := ses.srv.opts.quarantineAfter(); k > 0 && ses.panicStreak >= k {
				quarantine = true
				ses.condemned = true
			}
		} else if c.err == nil {
			ses.panicStreak = 0
		}
		ses.finish(c)
	}
	if sentinel != nil {
		ses.closeKernels()
		ses.srv.shutdowns.Add(1)
		sentinel.done <- struct{}{}
		return true
	}
	if quarantine {
		if ses.srv.removeQuarantined(ses) {
			// The worker owns the shutdown: no dispatcher can find the
			// session anymore and sends happen under the read lock
			// removeQuarantined just excluded, so a non-blocking drain
			// observes every call that was ever queued.
			ses.drainQuarantined()
			ses.closeKernels()
			ses.srv.shutdowns.Add(1)
			return true
		}
		// An evictor or Close removed the session first; its sentinel is
		// already queued. Keep looping — condemned requests fail fast above —
		// until the sentinel arrives.
	}
	return false
}

// serveOne executes one request on the worker with panic isolation: finishOne
// is the deferred recovery point, so a panicking kernel fails only this
// request and the worker survives to serve (or quarantine) the rest.
func (ses *session) serveOne(c *call) {
	defer ses.finishOne(c)
	ses.cur = c
	if ses.cancelFn() {
		// Canceled while queued (deadline storm, drain hard-cancel): answer
		// without touching a kernel.
		c.err = ErrCanceled
		return
	}
	if hook := ses.srv.opts.ChaosPanic; hook != nil && hook(c.req) {
		panic("chaos: injected worker panic")
	}
	switch c.req.Op {
	case OpVerify:
		ses.nVerify.Add(1)
		if ses.memo.verifyOK {
			ses.coalesced.Add(1)
			ses.srv.coalesced.Add(1)
			*c.resp = ses.memo.verify
		} else if c.err = ses.doVerify(c.resp); c.err == nil {
			ses.memo.verifyOK = true
			ses.memo.verify = *c.resp
		}
	case OpColor:
		ses.nColor.Add(1)
		name := c.req.Algorithm
		if name == "" {
			name = "relaxed"
		}
		if ses.memo.colorOK && ses.memo.colorAlg == name && ses.memo.colorSeed == c.req.Seed {
			ses.coalesced.Add(1)
			ses.srv.coalesced.Add(1)
			*c.resp = ses.memo.color
		} else if c.err = ses.doColor(c.req, c.resp); c.err == nil {
			// A fresh run with different parameters replaced the working
			// coloring; a memo-hit rerun would have produced the same
			// bytes, so the verify memo only drops on the former.
			ses.memo = batchMemo{colorOK: true, colorAlg: name, colorSeed: c.req.Seed, color: *c.resp}
		} else {
			ses.memo = batchMemo{}
		}
	case OpRecolor:
		ses.nRecolor.Add(1)
		ses.memo = batchMemo{}
		c.err = ses.doRecolor(c.req, c.resp)
	default:
		c.err = ErrBadRequest
	}
}

// finishOne is serveOne's deferred epilogue: recover a kernel panic into a
// structured ErrPanicked, fold the kernels' cooperative-cancel sentinels into
// serve's own, and clear the current-request hook either way.
func (ses *session) finishOne(c *call) {
	ses.cur = nil
	if p := recover(); p != nil {
		ses.srv.panics.Add(1)
		ses.nPanics.Add(1)
		// Whatever the panicking op half-wrote is suspect; drop the window's
		// memo so no later request coalesces onto it.
		ses.memo = batchMemo{}
		c.err = fmt.Errorf("%w: %v", ErrPanicked, p)
		return
	}
	if c.err != nil &&
		(errors.Is(c.err, ErrCanceled) || errors.Is(c.err, trial.ErrCanceled)) {
		c.err = ErrCanceled
		ses.srv.canceled.Add(1)
		ses.nCanceled.Add(1)
	}
}

// finish answers one dispatched call: undo its admission accounting (the
// session's pending count and, when it was the last in-flight request, the
// server-wide in-flight bytes), then release the waiter.
func (ses *session) finish(c *call) {
	if ses.pending.Add(-1) == 0 {
		ses.srv.inflightBytes.Add(-ses.est)
	}
	c.done <- struct{}{}
}

// drainQuarantined fails every still-queued request after the worker removed
// its own session from the cache (removeQuarantined returned true: no
// sentinel is queued and no new dispatcher can reach the channel).
func (ses *session) drainQuarantined() {
	for {
		select {
		case c := <-ses.reqs:
			ses.nRequests.Add(1)
			c.err = ErrQuarantined
			ses.finish(c)
		default:
			return
		}
	}
}

// closeKernels releases the warm kernels (and through them their
// congest.Engine goroutines). Called exactly once, by the worker, on
// shutdown — the lifecycle the leak tests pin.
func (ses *session) closeKernels() {
	if ses.rs != nil {
		ses.rs.Close()
		ses.rs = nil
	}
	if ses.tk != nil {
		ses.tk.Close()
		ses.tk = nil
	}
}

// kernel memoizes the session's warm trial kernel — the same hook the sweep
// grid hands to alg.Engine.Kernel, so repeated color requests share one
// network and one set of flat per-node arrays.
func (ses *session) kernel() *trial.Runner {
	if ses.tk == nil {
		ses.tk = trial.NewRunner(ses.g, false, ses.srv.opts.Workers)
		// The runner-level hook points at "the current request's cancel
		// flag", so the long-lived kernel follows per-request deadlines
		// without threading Cancel through every registry algorithm's Config.
		ses.tk.SetCancel(ses.cancelFn)
	}
	return ses.tk
}

func (ses *session) lazyChecker() *verify.Checker {
	if ses.checker == nil {
		ses.checker = verify.NewChecker()
		ses.checker.SetCancel(ses.cancelFn)
	}
	return ses.checker
}

// doColor runs a registry algorithm on the warm kernel and installs the
// result as the session's working coloring.
func (ses *session) doColor(req *Request, resp *Response) error {
	a, name, err := resolveAlgorithm(req.Algorithm)
	if err != nil {
		return err
	}
	res, err := a.Run(ses.g, alg.Engine{
		Workers: ses.srv.opts.Workers,
		Kernel:  ses.kernel,
	}, req.Seed)
	if err != nil {
		return err
	}
	if ses.rs != nil {
		// The repair session's working coloring is superseded; rebuild it
		// lazily from the fresh one on the next recolor.
		ses.rs.Close()
		ses.rs = nil
	}
	ses.stale, ses.hashed, ses.complete = true, false, false
	ses.colors = res.Coloring
	ses.palette = res.PaletteSize
	ses.algorithm = name
	ses.hash, ses.hashed = ses.digests.full(res.Coloring), true
	resp.Algorithm = name
	resp.Hash = ses.hash
	resp.PaletteSize = res.PaletteSize
	resp.Metrics = res.Metrics
	// This full pass re-seeds the checker's certificate.
	rep := ses.lazyChecker().CheckD2(ses.g, res.Coloring, res.PaletteSize)
	if rep.Canceled {
		// The run itself finished (the coloring is installed), but its
		// validation was cut short — report cancellation rather than an
		// unverified "valid: false". stale stays set: the next verify
		// rescans.
		return ErrCanceled
	}
	ses.touched = ses.touched[:0]
	ses.stale, ses.complete = false, rep.Valid
	resp.Valid = rep.Valid
	resp.ColorsUsed = rep.ColorsUsed
	resp.MaxColor = rep.MaxColor
	return nil
}

// doVerify checks the working coloring on the warm checker: a certified
// recheck of the nodes touched since the last pass, or — when the session
// is stale — a full CheckD2 that re-seeds the certificate. The hash is the
// cached one, rehashed in full only when a failed mutation voided it.
// Allocation-free once the checker and the digests are warm and the
// coloring valid.
func (ses *session) doVerify(resp *Response) error {
	if ses.colors == nil {
		return ErrNotColored
	}
	ch := ses.lazyChecker()
	if !ses.hashed {
		ses.hash, ses.hashed = ses.digests.full(ses.colors), true
	}
	var rep verify.Report
	if ses.stale {
		rep = ch.CheckD2(ses.g, ses.colors, ses.palette)
		ses.stale = false
	} else {
		rep = ch.RecheckD2(ses.g, ses.colors, ses.palette, ses.touched)
	}
	// Either way the checker's certificate now covers the current coloring
	// (or is void, and the next recheck is a full pass).
	ses.touched = ses.touched[:0]
	if rep.Canceled {
		return ErrCanceled
	}
	ses.complete = ses.complete || rep.Valid
	resp.Algorithm = ses.algorithm
	resp.Hash = ses.hash
	resp.PaletteSize = ses.palette
	resp.Valid = rep.Valid
	resp.ColorsUsed = rep.ColorsUsed
	resp.MaxColor = rep.MaxColor
	return nil
}

// doRecolor is one churn epoch against the session's repair kernel: corrupt
// k colors and repair them (Corrupt), repair an explicit dirty set (Dirty),
// or run the self-stabilization sweep (neither). A Corrupt or Dirty epoch on
// a warm session costs O(ball + n/hashBlock): the victim draw skips its
// scan when the coloring is known complete, the repair reads and writes
// only the ball, and the hash update rehashes only the changed nodes'
// blocks. The explicit-dirty path is allocation-free once warm.
func (ses *session) doRecolor(req *Request, resp *Response) error {
	if ses.colors == nil {
		return ErrNotColored
	}
	// An out-of-range dirty node is the client's fault: refuse it before
	// any session state changes, so the hash and certificate survive.
	for _, v := range req.Dirty {
		if v < 0 || int(v) >= ses.g.NumNodes() {
			return fmt.Errorf("%w: dirty node %d outside [0, %d)", ErrBadRequest, v, ses.g.NumNodes())
		}
	}
	// A stale session stays stale (its touched list is already void, so
	// drop it); a clean one is stale until this epoch's changes are
	// recorded. The hash and completeness are void until then too.
	wasStale, wasHashed, wasComplete := ses.stale, ses.hashed, ses.complete
	if wasStale {
		ses.touched = ses.touched[:0]
	}
	ses.stale, ses.hashed, ses.complete = true, false, false
	if ses.rs == nil {
		ses.rs = repair.NewSession(ses.g, ses.colors, repair.Options{
			Palette:        ses.palette,
			Workers:        ses.srv.opts.Workers,
			ScratchReports: true,
			Cancel:         ses.cancelFn,
		})
		// The repair session copies and then owns the working coloring;
		// alias it so verify sees every repair.
		ses.colors = ses.rs.Colors()
	}
	// A Corrupt or Dirty epoch names, in changed (ascending), every node it
	// changes; the sweep cannot, so its hash is a full pass.
	named := req.Corrupt > 0 || len(req.Dirty) > 0
	var changed []graph.NodeID
	complete := false
	switch {
	case req.Corrupt > 0:
		if ses.inj == nil {
			ses.inj = fault.NewInjector(req.Seed)
		} else {
			ses.inj.Reseed(req.Seed)
		}
		var victims []graph.NodeID
		if wasComplete {
			victims = ses.inj.CorruptKnown(ses.g, ses.rs.Colors(), req.Corrupt, fault.TargetUniform, ses.rs.Palette(), nil)
		} else {
			victims = ses.inj.CorruptColors(ses.g, ses.rs.Colors(), req.Corrupt, fault.TargetUniform, ses.rs.Palette())
		}
		// The repair recolors only inside its dirty set (Report.Recolored
		// ⊆ victims), so the victims cover every change of this epoch.
		ses.touched = append(ses.touched, victims...)
		rep, err := ses.rs.Repair(victims, req.Seed)
		if err != nil {
			return err
		}
		fillRepairResponse(resp, rep, 1)
		changed, complete = victims, wasComplete && rep.Complete
	case len(req.Dirty) > 0:
		rep, err := ses.rs.Repair(req.Dirty, req.Seed)
		if err != nil {
			return err
		}
		ses.touched = append(ses.touched, rep.Recolored...)
		fillRepairResponse(resp, rep, 1)
		changed, complete = rep.Recolored, wasComplete && rep.Complete
	default:
		// The sweep reports no per-node changes across its iterations;
		// the session stays stale and the next verify is a full pass.
		reports, err := ses.rs.Stabilize(req.Seed, 0)
		for _, rep := range reports {
			resp.Dirty += rep.Dirty
			resp.Ball += rep.Ball
			resp.Recolored += len(rep.Recolored)
			resp.Phases += rep.Phases
		}
		resp.Iterations = len(reports)
		if len(reports) > 0 {
			resp.Metrics = reports[len(reports)-1].Metrics
		}
		if err != nil {
			return err
		}
		resp.Complete = true
		complete = true
	}
	if wasHashed && named {
		ses.hash = ses.digests.update(ses.rs.Colors(), changed)
	} else {
		ses.hash = ses.digests.full(ses.rs.Colors())
	}
	ses.hashed, ses.complete = true, complete
	if named && !wasStale {
		// A recheck walks about d + d² adjacency entries per touched node
		// (d the mean degree) against the n + 2m of a full pass, so past
		// n/d nodes it could not pay off: give up the certificate rather
		// than start a walk that ends in the full pass anyway. This also
		// bounds the list for a recolor-only client.
		n, m := int64(ses.g.NumNodes()), int64(ses.g.NumEdges())
		ses.stale = int64(len(ses.touched))*2*m > n*n
	}
	resp.Algorithm = ses.algorithm
	resp.PaletteSize = ses.palette
	resp.Hash = ses.hash
	return nil
}

func fillRepairResponse(resp *Response, rep repair.Report, iters int) {
	resp.Dirty = rep.Dirty
	resp.Ball = rep.Ball
	resp.Recolored = len(rep.Recolored)
	resp.Phases = rep.Phases
	resp.Iterations = iters
	resp.Metrics = rep.Metrics
	resp.Complete = rep.Complete
}

func (ses *session) statsSnapshot() SessionStats {
	return SessionStats{
		Session:         ses.key,
		Nodes:           ses.g.NumNodes(),
		Edges:           ses.g.NumEdges(),
		EstimatedBytes:  ses.est,
		Requests:        ses.nRequests.Load(),
		Color:           ses.nColor.Load(),
		Verify:          ses.nVerify.Load(),
		Recolor:         ses.nRecolor.Load(),
		Batches:         ses.nBatches.Load(),
		BatchedRequests: ses.nBatched.Load(),
		MaxBatch:        ses.maxBatch.Load(),
		Coalesced:       ses.coalesced.Load(),
		QueueDepth:      ses.pending.Load(),
		Shed:            ses.nShed.Load(),
		Canceled:        ses.nCanceled.Load(),
		Panics:          ses.nPanics.Load(),
	}
}
