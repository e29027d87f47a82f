package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"d2color/internal/alg"
	"d2color/internal/coloring"
	"d2color/internal/fault"
	"d2color/internal/graph"
	"d2color/internal/repair"
	"d2color/internal/serve"
	"d2color/internal/trial"
	"d2color/internal/verify"
)

// serveShape is one serve workload: its sessions, its op mix and which
// latency percentiles it reports.
type serveShape struct {
	name  string
	specs []graph.GeneratorSpec
	// hotPct is the share of requests sent to session s0; the rest pick a
	// session uniformly.
	hotPct int
	// verifyPct and colorPct split the mix; the remainder is recolor.
	verifyPct, colorPct int
	// corrupt is how many colors each recolor corrupts before repairing.
	corrupt int
	// colorSeeds are the relaxed seeds color requests use; the first one
	// colors every session at set-up.
	colorSeeds []uint64
	warmOps    int
	// slots maps the end-to-end latency names to this workload's op kinds.
	slots []slot
}

type slot struct {
	name    string
	kind    serve.Op
	q       float64
	meaning string
}

const serveClients = 2

func colorSeeds(seed uint64, purpose string, n int) []uint64 {
	r := derive(seed, purpose)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

func queryShape(c config) serveShape {
	r := derive(c.seed, "serve-query/graphs")
	specs := make([]graph.GeneratorSpec, c.size.querySessions)
	for i := range specs {
		specs[i] = graph.GeneratorSpec{Kind: "ba", N: c.size.queryN, Degree: c.size.queryM, Seed: int64(r.next() >> 1)}
	}
	return serveShape{
		name: "serve-query", specs: specs, hotPct: 50,
		verifyPct: 90, colorPct: 5, corrupt: 4,
		colorSeeds: colorSeeds(c.seed, "serve-query/color-seeds", 4),
		warmOps:    c.size.warmOps,
		slots: []slot{
			{"verify_p50_ms", serve.OpVerify, 0.5, "verify request, p50"},
			{"lat_a_ms", serve.OpVerify, 0.99, "verify request, p99"},
			{"lat_b_ms", serve.OpColor, 0.5, "color request (relaxed), p50"},
			{"lat_c_ms", serve.OpRecolor, 0.5, "recolor request (4 corrupted), p50"},
		},
	}
}

func churnShape(c config) serveShape {
	r := derive(c.seed, "serve-churn/graph")
	return serveShape{
		name:      "serve-churn",
		specs:     []graph.GeneratorSpec{{Kind: "gnp-avg", N: c.size.churnN, P: c.size.churnDeg, Seed: int64(r.next() >> 1)}},
		verifyPct: 15, corrupt: 16,
		colorSeeds: colorSeeds(c.seed, "serve-churn/color-seeds", 1),
		warmOps:    max(c.size.warmOps/15, 4),
		slots: []slot{
			{"verify_p50_ms", serve.OpVerify, 0.5, "verify request, p50"},
			{"lat_a_ms", serve.OpRecolor, 0.5, "recolor request (16 corrupted), p50"},
			// The tails are p90: p99 spread 21-28% across repeat runs here.
			{"lat_b_ms", serve.OpRecolor, 0.9, "recolor request (16 corrupted), p90"},
			{"lat_c_ms", serve.OpVerify, 0.9, "verify request, p90"},
		},
	}
}

// minSamples is, per op kind, how many samples the reported percentiles
// need so that each has at least ten beyond it.
func (sh *serveShape) minSamples() map[serve.Op]int {
	out := map[serve.Op]int{}
	for _, s := range sh.slots {
		out[s.kind] = max(out[s.kind], need(s.q))
	}
	return out
}

// serveOp is one scheduled request.
type serveOp struct {
	kind     serve.Op
	session  int
	colorIdx int    // color: index into colorSeeds
	seed     uint64 // recolor: corruption and repair seed
}

// serveSchedule is one client's op stream, drawn from the workload seed.
type serveSchedule struct {
	r  *splitmix
	sh *serveShape
}

func (sh *serveShape) schedule(seed uint64, purpose string) *serveSchedule {
	return &serveSchedule{r: derive(seed, sh.name+"/"+purpose), sh: sh}
}

func (s *serveSchedule) next() serveOp {
	var op serveOp
	if s.r.percent() >= s.sh.hotPct {
		op.session = s.r.intn(len(s.sh.specs))
	}
	switch k := s.r.percent(); {
	case k < s.sh.verifyPct:
		op.kind = serve.OpVerify
	case k < s.sh.verifyPct+s.sh.colorPct:
		op.kind = serve.OpColor
		op.colorIdx = s.r.intn(len(s.sh.colorSeeds))
	default:
		op.kind = serve.OpRecolor
		op.seed = s.r.next()
	}
	return op
}

func (sh *serveShape) request(op serveOp, req *serve.Request) {
	*req = serve.Request{Op: op.kind, Session: sessionKey(op.session)}
	switch op.kind {
	case serve.OpColor:
		req.Algorithm, req.Seed = "relaxed", sh.colorSeeds[op.colorIdx]
	case serve.OpRecolor:
		req.Corrupt, req.Seed = sh.corrupt, op.seed
	}
}

func sessionKey(i int) string { return "s" + strconv.Itoa(i) }

// direct holds, per session, the graph and the hashes of direct alg.Run
// calls for every color seed: the served-equals-direct contract.
type direct struct {
	g       *graph.Graph
	hashes  []uint64
	colors  coloring.Coloring // the set-up coloring (first seed)
	palette int
}

func computeDirect(sh *serveShape) ([]direct, error) {
	relaxed, ok := alg.Get("relaxed")
	if !ok {
		return nil, fmt.Errorf("algorithm relaxed is not registered")
	}
	out := make([]direct, len(sh.specs))
	for i, spec := range sh.specs {
		g, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		out[i].g = g
		for k, seed := range sh.colorSeeds {
			res, err := relaxed.Run(g, alg.Engine{}, seed)
			if err != nil {
				return nil, err
			}
			out[i].hashes = append(out[i].hashes, serve.HashColors(res.Coloring))
			if k == 0 {
				out[i].colors, out[i].palette = res.Coloring, res.PaletteSize
			}
		}
	}
	return out, nil
}

// reqHeader carries the benchmark's request id to the handler middleware in
// the traced phase, so client and handler spans share it.
const reqHeader = "X-Perfbench-Request"

// harness is one in-process server behind a loopback listener.
type harness struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{}
	base      string
	transport *http.Transport
	dials     atomic.Int64
	tracing   atomic.Bool
	tr        *tracer
}

func startHarness() (*harness, error) {
	h := &harness{srv: serve.NewServer(serve.Options{}), served: make(chan struct{})}
	inner := serve.NewHandler(h.srv)
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.tracing.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		h.tr.add(id, "http.handler", "client.request", t0, time.Now())
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		h.hs.Serve(ln)
		close(h.served)
	}()
	dialer := &net.Dialer{}
	h.transport = &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		MaxIdleConns:        serveClients,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			h.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	h.base = "http://" + ln.Addr().String()
	return h, nil
}

func (h *harness) close() {
	h.transport.CloseIdleConnections()
	h.hs.Close()
	<-h.served
	h.srv.Close()
}

// taggingRT adds the request id header while the traced phase runs.
type taggingRT struct {
	base http.RoundTripper
	on   bool
	id   uint64
}

func (t *taggingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.on {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(t.id, 10))
	}
	return t.base.RoundTrip(r)
}

// servedOp is one completed request of the traced phase, kept for replay.
type servedOp struct {
	id  uint64
	op  serveOp
	end time.Time
}

// client is one closed-loop client: it sends its next request only after
// the previous one has been answered.
type client struct {
	h      *harness
	sh     *serveShape
	direct []direct
	rt     *taggingRT
	tr     *serve.HTTPTransport
	sched  *serveSchedule
	idBase uint64
	n      uint64

	rep     report
	lat     map[serve.Op]samples
	congest congestSum
	served  []servedOp
	req     serve.Request
	resp    serve.Response
}

func newClient(h *harness, sh *serveShape, d []direct, sched *serveSchedule, idx int) *client {
	rt := &taggingRT{base: h.transport}
	return &client{
		h: h, sh: sh, direct: d, rt: rt, sched: sched,
		tr:     serve.NewHTTPTransport(h.base, &http.Client{Transport: rt}),
		idBase: uint64(idx+1) << 40,
		lat:    map[serve.Op]samples{},
	}
}

// do sends one request and checks its output. It returns whether the
// request succeeded and passed its checks, and its latency.
func (cl *client) do(op serveOp) (time.Duration, bool) {
	cl.sh.request(op, &cl.req)
	id := cl.idBase + cl.n
	cl.n++
	cl.rt.id = id
	t0 := time.Now()
	err := cl.tr.Do(&cl.req, &cl.resp)
	t1 := time.Now()
	cl.rep.attempted++
	if !cl.check(op, err) {
		return 0, false
	}
	if cl.rt.on {
		cl.h.tr.add(id, "client.request", "", t0, t1)
		cl.served = append(cl.served, servedOp{id, op, t1})
	}
	if op.kind != serve.OpVerify {
		m := cl.resp.Metrics
		cl.congest.add(m.Rounds, m.ChargedRounds, m.MessagesSent, m.WordsSent)
	}
	return t1.Sub(t0), true
}

func (cl *client) check(op serveOp, err error) bool {
	resp := &cl.resp
	key := sessionKey(op.session)
	switch {
	case err != nil:
		cl.rep.fail("%s %s: %v", op.kind, key, err)
	case op.kind == serve.OpVerify && !resp.Valid:
		cl.rep.fail("verify %s: served coloring is invalid", key)
	case op.kind == serve.OpColor && !resp.Valid:
		cl.rep.fail("color %s: served coloring is invalid", key)
	case op.kind == serve.OpColor && resp.Hash != cl.direct[op.session].hashes[op.colorIdx]:
		cl.rep.fail("color %s seed %d: served hash %x != direct %x", key, cl.req.Seed, resp.Hash, cl.direct[op.session].hashes[op.colorIdx])
	case op.kind == serve.OpRecolor && !resp.Complete:
		cl.rep.fail("recolor %s seed %d: repair incomplete", key, op.seed)
	default:
		return true
	}
	return false
}

// phase is one closed-loop measurement shared by the clients: it ends once
// its duration has passed and every reported percentile has enough samples.
type phase struct {
	start    time.Time
	d        time.Duration
	min      map[serve.Op]int
	counts   map[serve.Op]*atomic.Int64
	finished atomic.Bool
}

func newPhase(d time.Duration, min map[serve.Op]int) *phase {
	p := &phase{start: time.Now(), d: d, min: min, counts: map[serve.Op]*atomic.Int64{}}
	for _, k := range []serve.Op{serve.OpVerify, serve.OpColor, serve.OpRecolor} {
		p.counts[k] = new(atomic.Int64)
	}
	return p
}

func (p *phase) done() bool {
	if p.finished.Load() {
		return true
	}
	if time.Since(p.start) < p.d {
		return false
	}
	for k, n := range p.min {
		if p.counts[k].Load() < int64(n) {
			return false
		}
	}
	p.finished.Store(true)
	return true
}

// runClients drives every client through one closed-loop phase (or, with
// d == 0, through ops requests each) and returns the elapsed time.
func runClients(clients []*client, d time.Duration, min map[serve.Op]int, ops int) time.Duration {
	runtime.GC()
	p := newPhase(d, min)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; d > 0 || i < ops; i++ {
				if d > 0 && p.done() {
					return
				}
				op := cl.sched.next()
				lat, ok := cl.do(op)
				if ok && d > 0 {
					cl.lat[op.kind] = append(cl.lat[op.kind], lat)
					p.counts[op.kind].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(p.start)
}

// collect merges the clients' samples and accounting into rep.
func collect(clients []*client, rep *report) (map[serve.Op]samples, congestSum, int) {
	lat := map[serve.Op]samples{}
	var cs congestSum
	ops := 0
	for _, cl := range clients {
		for k, s := range cl.lat {
			lat[k] = append(lat[k], s...)
			ops += len(s)
		}
		cl.lat = map[serve.Op]samples{}
		cs.ops += cl.congest.ops
		cs.rounds += cl.congest.rounds
		cs.charged += cl.congest.charged
		cs.messages += cl.congest.messages
		cs.words += cl.congest.words
		cl.congest = congestSum{}
		rep.attempted += cl.rep.attempted
		rep.failed += cl.rep.failed
		rep.invalid = append(rep.invalid, cl.rep.invalid...)
		cl.rep = report{}
	}
	return lat, cs, ops
}

// setupServer starts a server, opens and colors every session (checking
// each set-up coloring against its direct run), and warms it with untimed
// requests from every client.
func setupServer(c config, sh *serveShape, d []direct, rep *report, round int) (*harness, error) {
	h, err := startHarness()
	if err != nil {
		return nil, err
	}
	ctl := newClient(h, sh, d, nil, 0)
	for i := range sh.specs {
		spec := sh.specs[i]
		open := serve.Request{Op: serve.OpOpen, Session: sessionKey(i), Spec: &spec}
		if err := ctl.tr.Do(&open, &ctl.resp); err != nil {
			h.close()
			return nil, fmt.Errorf("open %s: %w", sessionKey(i), err)
		}
		ctl.do(serveOp{kind: serve.OpColor, session: i})
	}
	var warm []*client
	for i := 0; i < serveClients; i++ {
		warm = append(warm, newClient(h, sh, d, sh.schedule(c.seed, fmt.Sprintf("warm/%d/%d", round, i)), i))
	}
	runClients(warm, 0, nil, sh.warmOps)
	collect(append(warm, ctl), rep)
	return h, nil
}

func runServe(c config, sh serveShape) (*report, error) {
	rep := &report{workload: c.workload}
	d, err := computeDirect(&sh)
	if err != nil {
		return nil, err
	}

	var h *harness
	var setupS []float64
	for i := 0; i < c.setups; i++ {
		// Tear the previous set-up down first, so set-ups never overlap in
		// memory.
		if h != nil {
			h.close()
			h = nil
		}
		runtime.GC()
		t0 := time.Now()
		if h, err = setupServer(c, &sh, d, rep, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer h.close()
	c.logf("%s: %d session(s), n=%d, set-up %.3fs", sh.name, len(sh.specs), d[0].g.NumNodes(), medianOf(setupS))

	var clients []*client
	for i := 0; i < serveClients; i++ {
		clients = append(clients, newClient(h, &sh, d, sh.schedule(c.seed, "client/"+strconv.Itoa(i)), i))
	}
	statsBefore := h.srv.Stats()
	resetPeakRSS()
	before := memSnapshot()
	elapsed := runClients(clients, c.duration(), sh.minSamples(), 0)
	mem := memSince(before)
	statsAfter := h.srv.Stats()
	lat, congest, ops := collect(clients, rep)

	rep.e2e = []metric{
		{name: "setup_s", value: medianOf(setupS), unit: "s", samples: len(setupS), meaning: "median set-up: server start, open + color every session, warm-up"},
		{name: "ops_per_s", value: float64(ops) / elapsed.Seconds(), unit: "1/s", samples: ops, meaning: "answered and checked requests per second"},
		{name: "peak_rss_mib", value: peakRSSMiB(), unit: "MiB", samples: ops, meaning: "VmHWM over the measured phase (high-water of all its ops)"},
	}
	for _, s := range sh.slots {
		rep.e2e = append(rep.e2e, latencyMetric(s.name, s.meaning, lat[s.kind], s.q))
	}
	if !c.trace {
		return rep, nil
	}
	return rep, traceServe(c, &sh, d, h, clients, rep, lat, congest, mem, ops, statsBefore, statsAfter)
}

// traceServe runs the traced phase, replays its ops against the library
// kernels on a copy of each session, and builds the layer table.
func traceServe(c config, sh *serveShape, d []direct, h *harness, clients []*client, rep *report,
	untraced map[serve.Op]samples, congest congestSum, mem memDelta, memOps int, st0, st1 serve.Stats) error {
	// Probes: graph generation and kernel builds of every session graph.
	var generate, build samples
	replicas := make([]*replica, len(d))
	for round := 0; round < c.setups; round++ {
		for i, spec := range sh.specs {
			t0 := time.Now()
			if _, err := spec.Generate(); err != nil {
				return err
			}
			generate = append(generate, time.Since(t0))
			t0 = time.Now()
			k := trial.NewRunner(d[i].g, false, 0)
			build = append(build, time.Since(t0))
			if replicas[i] != nil {
				replicas[i].kernel.Close()
			}
			replicas[i] = newReplica(d[i], k)
		}
	}
	defer func() {
		for _, r := range replicas {
			r.close()
		}
	}()

	h.tr = newTracer()
	h.tracing.Store(true)
	for _, cl := range clients {
		cl.rt.on = true
	}
	elapsed := runClients(clients, c.duration(), sh.minSamples(), 0)
	h.tracing.Store(false)
	_, _, tracedOps := collect(clients, rep)

	// Replay in completion order until the budget is spent.
	var order []servedOp
	for _, cl := range clients {
		order = mergeByEnd(order, cl.served)
		cl.served = nil
	}
	budget := c.duration() / 2
	t0 := time.Now()
	replayed := 0
	for _, so := range order {
		if time.Since(t0) > budget {
			break
		}
		replicas[so.op.session].replay(sh, so, h.tr, rep)
		replayed++
	}
	rep.table = append(rep.table, fmt.Sprintf("layer table (%s, traced phase %d ops in %.1fs, %d replayed against the kernels):",
		sh.name, tracedOps, elapsed.Seconds(), replayed))

	spans := h.tr.byName()
	var tables []opTable
	var check samples
	var kernelSum, frameSum time.Duration
	kernelOps := 0
	for _, kind := range []serve.Op{serve.OpVerify, serve.OpColor, serve.OpRecolor} {
		t := opTable{kind: string(kind), untraced: untraced[kind]}
		var httpSelf, serveSelf samples
		kernels := kernelLayers(kind)
		kernelSelf := make([]samples, len(kernels))
		for _, so := range order[:replayed] {
			if so.op.kind != kind {
				continue
			}
			cr, ok1 := spans["client.request"][so.id]
			hd, ok2 := spans["http.handler"][so.id]
			if !ok1 || !ok2 {
				continue
			}
			var k time.Duration
			for j, name := range kernels {
				sp := spans[name][so.id]
				kernelSelf[j] = append(kernelSelf[j], sp.dur())
				k += sp.dur()
			}
			t.traced = append(t.traced, cr.dur())
			httpSelf = append(httpSelf, cr.dur()-hd.dur())
			serveSelf = append(serveSelf, hd.dur()-k)
			kernelSum += k
			frameSum += cr.dur() - k
			kernelOps++
		}
		if len(t.traced) == 0 {
			continue
		}
		t.layers = []layerRow{{"http (client+codec+net)", httpSelf}, {"serve (admit+queue+batch)", serveSelf}}
		for j, name := range kernels {
			t.layers = append(t.layers, layerRow{name, kernelSelf[j]})
			if name == "verify.check" && kind == serve.OpVerify {
				check = kernelSelf[j]
			}
		}
		tables = append(tables, t)
		rep.table = append(rep.table, t.render()...)
	}
	var rt repairTotals
	for _, r := range replicas {
		rt.repairs += r.repairs
		rt.ball += r.ball
		rt.recolored += r.recolored
		rt.phases += r.phases
		rt.locality += r.locality
	}
	if n := float64(rt.repairs); n > 0 {
		rep.table = append(rep.table, fmt.Sprintf("  repair per recolor: ball %.1f nodes, recolored %.1f, phases %.2f, locality %.4f (n=%d)",
			float64(rt.ball)/n, float64(rt.recolored)/n, float64(rt.phases)/n, rt.locality/n, rt.repairs))
	}
	rep.table = append(rep.table, serveCounters(st0, st1, h.dials.Load())...)
	residual, overhead := tableSummary(tables)
	rep.layers = layerMetrics(layerInputs{
		generate: generate, build: build, check: check,
		kernelMs: ms(kernelSum) / float64(kernelOps), frameMs: ms(frameSum) / float64(kernelOps), ops: kernelOps,
		residualPct: residual, overheadPct: overhead,
		congest: congest, mem: mem, memOps: memOps,
	})
	if path, err := h.tr.write(c.outDir, c.workload, c.seed); err != nil {
		return err
	} else if path != "" {
		rep.table = append(rep.table, "spans written to "+path)
	}
	return nil
}

// kernelLayers names the kernel spans a replayed op records, in order.
func kernelLayers(kind serve.Op) []string {
	switch kind {
	case serve.OpColor:
		return []string{"alg.run", "verify.check"}
	case serve.OpRecolor:
		return []string{"repair.repair"}
	}
	return []string{"verify.check"}
}

// serveCounters renders the server's own counters over the untraced phase.
func serveCounters(a, b serve.Stats, dials int64) []string {
	var requests, batches, batched, coalesced, maxBatch int64
	for _, s := range b.Sessions {
		requests += s.Requests
		batches += s.Batches
		batched += s.BatchedRequests
		coalesced += s.Coalesced
		maxBatch = max(maxBatch, s.MaxBatch)
	}
	for _, s := range a.Sessions {
		requests -= s.Requests
		batches -= s.Batches
		batched -= s.BatchedRequests
		coalesced -= s.Coalesced
	}
	return []string{fmt.Sprintf("  serve counters (untraced phase): %d requests in %d batches (mean %.3f, max %d ever), %.1f%% in multi-request batches, coalesced %d, shed %d; http dials %d",
		requests, batches, float64(requests)/float64(max(batches, 1)), maxBatch, float64(batched)/float64(max(requests, 1))*100, coalesced, b.Shed-a.Shed, dials)}
}

func mergeByEnd(a, b []servedOp) []servedOp {
	out := make([]servedOp, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].end.Before(b[0].end) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// replica mirrors one served session's kernels outside the server: the
// same graph and set-up coloring, driven through verify.Checker, alg.Run
// and repair.Session exactly as the session worker drives them.
type replica struct {
	g       *graph.Graph
	colors  coloring.Coloring
	palette int
	kernel  *trial.Runner
	checker *verify.Checker
	rs      *repair.Session
	hashes  []uint64
	relaxed alg.Algorithm
	repairTotals
}

// repairTotals sums the replayed repairs' reports.
type repairTotals struct {
	repairs, ball, recolored, phases int
	locality                         float64
}

func newReplica(d direct, k *trial.Runner) *replica {
	relaxed, _ := alg.Get("relaxed")
	return &replica{
		g: d.g, colors: append(coloring.Coloring(nil), d.colors...), palette: d.palette,
		kernel: k, checker: verify.NewChecker(), hashes: d.hashes, relaxed: relaxed,
	}
}

func (r *replica) close() {
	if r.rs != nil {
		r.rs.Close()
	}
	r.kernel.Close()
}

// replay runs one op against the kernels, recording a span per kernel.
func (r *replica) replay(sh *serveShape, so servedOp, tr *tracer, rep *report) {
	switch so.op.kind {
	case serve.OpVerify:
		t0 := time.Now()
		vr := r.checker.CheckD2(r.g, r.colors, r.palette)
		tr.add(so.id, "verify.check", "http.handler", t0, time.Now())
		if !vr.Valid {
			rep.fail("replayed verify: invalid coloring: %v", vr.Error())
		}
	case serve.OpColor:
		t0 := time.Now()
		res, err := r.relaxed.Run(r.g, alg.Engine{Kernel: func() *trial.Runner { return r.kernel }}, sh.colorSeeds[so.op.colorIdx])
		t1 := time.Now()
		if err != nil {
			rep.fail("replayed color: %v", err)
			return
		}
		vr := r.checker.CheckD2(r.g, res.Coloring, res.PaletteSize)
		tr.add(so.id, "alg.run", "http.handler", t0, t1)
		tr.add(so.id, "verify.check", "http.handler", t1, time.Now())
		if !vr.Valid || serve.HashColors(res.Coloring) != r.hashes[so.op.colorIdx] {
			rep.fail("replayed color: invalid or differs from the direct run")
		}
		if r.rs != nil {
			r.rs.Close()
			r.rs = nil
		}
		r.colors, r.palette = res.Coloring, res.PaletteSize
	case serve.OpRecolor:
		t0 := time.Now()
		if r.rs == nil {
			r.rs = repair.NewSession(r.g, r.colors, repair.Options{Palette: r.palette, ScratchReports: true})
			r.colors = r.rs.Colors()
		}
		victims := fault.NewInjector(so.op.seed).CorruptColors(r.g, r.rs.Colors(), sh.corrupt, fault.TargetUniform, r.rs.Palette())
		res, err := r.rs.Repair(victims, so.op.seed)
		tr.add(so.id, "repair.repair", "http.handler", t0, time.Now())
		if err != nil || !res.Complete {
			rep.fail("replayed recolor: incomplete repair: %v", err)
			return
		}
		r.repairs++
		r.ball += res.Ball
		r.recolored += len(res.Recolored)
		r.phases += res.Phases
		r.locality += res.Locality
	}
}
