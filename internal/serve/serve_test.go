package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"d2color/internal/alg"
	"d2color/internal/coloring"
	_ "d2color/internal/core" // links every algorithm into the registry
	"d2color/internal/fault"
	"d2color/internal/graph"
	"d2color/internal/repair"
)

// goldenSpecs mirrors the registry golden's family list (internal/alg's
// goldenFamilies) as generator specs, so the served byte-identity claim is
// pinned against exactly the instances the palette-kernel golden pins.
func goldenSpecs() []struct {
	name string
	spec graph.GeneratorSpec
} {
	return []struct {
		name string
		spec graph.GeneratorSpec
	}{
		{"gnp", graph.GeneratorSpec{Kind: "gnp-avg", N: 96, P: 8, Seed: 3}},
		{"unitdisk", graph.GeneratorSpec{Kind: "unitdisk", N: 90, P: 0.16, Seed: 5}},
		{"grid", graph.GeneratorSpec{Kind: "grid", N: 9, M: 9}},
		{"cliquechain", graph.GeneratorSpec{Kind: "cliquechain", N: 4, M: 5}},
		{"star", graph.GeneratorSpec{Kind: "star", N: 24}},
		{"regular", graph.GeneratorSpec{Kind: "regular", N: 80, Degree: 6, Seed: 7}},
	}
}

// TestServedMatchesDirect pins the tentpole byte-identity claim: a color
// request against a warm session returns exactly the coloring hash, palette
// and Metrics of a direct alg.Run on a fresh graph, for every registered
// algorithm × golden family × seed — even though the session reuses one warm
// kernel across all of them.
func TestServedMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry three times per family")
	}
	seeds := []uint64{1, 7, 42}
	for _, fam := range goldenSpecs() {
		srv := NewServer(Options{})
		spec := fam.spec
		var resp Response
		if err := srv.Do(&Request{Op: OpOpen, Session: fam.name, Spec: &spec}, &resp); err != nil {
			t.Fatalf("%s: open: %v", fam.name, err)
		}
		g, err := fam.spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alg.All() {
			for _, seed := range seeds {
				direct, err := a.Run(g, alg.Engine{}, seed)
				if err != nil {
					t.Fatalf("%s/%s/%d: direct: %v", fam.name, a.Name(), seed, err)
				}
				req := Request{Op: OpColor, Session: fam.name, Algorithm: a.Name(), Seed: seed}
				if err := srv.Do(&req, &resp); err != nil {
					t.Fatalf("%s/%s/%d: served: %v", fam.name, a.Name(), seed, err)
				}
				if want := HashColors(direct.Coloring); resp.Hash != want {
					t.Errorf("%s/%s/%d: served hash %016x != direct %016x", fam.name, a.Name(), seed, resp.Hash, want)
				}
				if resp.PaletteSize != direct.PaletteSize {
					t.Errorf("%s/%s/%d: served palette %d != direct %d", fam.name, a.Name(), seed, resp.PaletteSize, direct.PaletteSize)
				}
				if resp.Metrics != direct.Metrics {
					t.Errorf("%s/%s/%d: served metrics %+v != direct %+v", fam.name, a.Name(), seed, resp.Metrics, direct.Metrics)
				}
				if want := direct.ColorsUsed(); resp.ColorsUsed != want {
					t.Errorf("%s/%s/%d: served colorsUsed %d != direct %d", fam.name, a.Name(), seed, resp.ColorsUsed, want)
				}
				if !resp.Valid {
					t.Errorf("%s/%s/%d: served coloring reported invalid", fam.name, a.Name(), seed)
				}
			}
		}
		srv.Close()
	}
}

// TestServeRecolorMatchesDirectRepair pins recolor byte-identity: the served
// churn epoch (corrupt k colors, repair the victims) produces exactly the
// working coloring of a direct repair.Session fed the same injector script.
func TestServeRecolorMatchesDirectRepair(t *testing.T) {
	spec := graph.GeneratorSpec{Kind: "gnp-avg", N: 500, P: 8, Seed: 11}
	srv := NewServer(Options{})
	defer srv.Close()
	var resp Response
	if err := srv.Do(&Request{Op: OpOpen, Session: "g", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpColor, Session: "g", Algorithm: "relaxed", Seed: 5}, &resp); err != nil {
		t.Fatal(err)
	}

	// The direct twin: same graph, same algorithm, same repair options,
	// same fault script.
	g, _ := spec.Generate()
	a, _ := alg.Get("relaxed")
	direct, err := a.Run(g, alg.Engine{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Hash, HashColors(direct.Coloring); got != want {
		t.Fatal("initial coloring diverged before any repair")
	}
	rs := repair.NewSession(g, direct.Coloring, repair.Options{Palette: direct.PaletteSize})
	defer rs.Close()

	for epoch := uint64(0); epoch < 3; epoch++ {
		seed := 100 + epoch
		if err := srv.Do(&Request{Op: OpRecolor, Session: "g", Corrupt: 20, Seed: seed}, &resp); err != nil {
			t.Fatalf("epoch %d: served recolor: %v", epoch, err)
		}
		inj := fault.NewInjector(seed)
		victims := inj.CorruptColors(g, rs.Colors(), 20, fault.TargetUniform, rs.Palette())
		rep, err := rs.Repair(victims, seed)
		if err != nil {
			t.Fatalf("epoch %d: direct repair: %v", epoch, err)
		}
		if want := HashColors(rs.Colors()); resp.Hash != want {
			t.Errorf("epoch %d: served hash %016x != direct %016x", epoch, resp.Hash, want)
		}
		if resp.Dirty != rep.Dirty || resp.Ball != rep.Ball || resp.Recolored != len(rep.Recolored) {
			t.Errorf("epoch %d: served (dirty=%d ball=%d recolored=%d) != direct (%d %d %d)",
				epoch, resp.Dirty, resp.Ball, resp.Recolored, rep.Dirty, rep.Ball, len(rep.Recolored))
		}
		if resp.Metrics != rep.Metrics {
			t.Errorf("epoch %d: served metrics %+v != direct %+v", epoch, resp.Metrics, rep.Metrics)
		}
		if !resp.Complete {
			t.Errorf("epoch %d: served repair incomplete", epoch)
		}
	}

	// Explicit-dirty path.
	dirty := []graph.NodeID{3, 77, 250, 499}
	if err := srv.Do(&Request{Op: OpRecolor, Session: "g", Dirty: dirty, Seed: 7}, &resp); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Repair(dirty, 7); err != nil {
		t.Fatal(err)
	}
	if want := HashColors(rs.Colors()); resp.Hash != want {
		t.Errorf("explicit-dirty served hash %016x != direct %016x", resp.Hash, want)
	}

	// Stabilize path on a clean coloring: no iterations, hash unchanged.
	if err := srv.Do(&Request{Op: OpRecolor, Session: "g", Seed: 9}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Iterations != 0 || !resp.Complete {
		t.Errorf("stabilize on clean coloring: iterations=%d complete=%v", resp.Iterations, resp.Complete)
	}
	if want := HashColors(rs.Colors()); resp.Hash != want {
		t.Error("stabilize changed the coloring")
	}

	// The served working coloring must verify clean after the epochs.
	if err := srv.Do(&Request{Op: OpVerify, Session: "g"}, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Valid {
		t.Error("post-churn working coloring invalid")
	}
}

// TestServeBatchedAndUnbatchedIdentical drives the same request sequence
// through a batched and an unbatched server: every response must match
// field-for-field — batching is a scheduling optimization, never a semantic
// one.
func TestServeBatchedAndUnbatchedIdentical(t *testing.T) {
	spec := graph.GeneratorSpec{Kind: "ba", N: 300, Degree: 3, Seed: 2}
	run := func(unbatched bool) []Response {
		srv := NewServer(Options{Unbatched: unbatched})
		defer srv.Close()
		var out []Response
		var resp Response
		do := func(req Request) {
			if err := srv.Do(&req, &resp); err != nil {
				t.Fatalf("unbatched=%v %s: %v", unbatched, req.Op, err)
			}
			r := resp
			r.Stats = nil
			out = append(out, r)
		}
		do(Request{Op: OpOpen, Session: "x", Spec: &spec})
		do(Request{Op: OpColor, Session: "x", Algorithm: "greedy", Seed: 1})
		do(Request{Op: OpVerify, Session: "x"})
		do(Request{Op: OpRecolor, Session: "x", Corrupt: 5, Seed: 3})
		do(Request{Op: OpVerify, Session: "x"})
		do(Request{Op: OpColor, Session: "x", Algorithm: "relaxed", Seed: 4})
		do(Request{Op: OpRecolor, Session: "x", Dirty: []graph.NodeID{1, 2, 3}, Seed: 5})
		do(Request{Op: OpVerify, Session: "x"})
		return out
	}
	batched, unbatched := run(false), run(true)
	for i := range batched {
		if batched[i] != unbatched[i] {
			t.Errorf("response %d differs: batched %+v != unbatched %+v", i, batched[i], unbatched[i])
		}
	}
}

// closedSessionWindows runs three dispatch windows on one session — a color,
// a held color, and a window of two verifies queued behind it (one of them
// coalesces) — then closes the session and returns the server's stats.
func closedSessionWindows(t *testing.T) Stats {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(Options{ChaosPanic: func(req *Request) bool {
		if req.Op == OpColor && req.Seed == 99 {
			// Hold the worker past its window's drain, so both verifies
			// queue behind it and form the next window together.
			close(entered)
			<-release
		}
		return false
	}})
	defer srv.Close()
	spec := graph.GeneratorSpec{Kind: "ba", N: 200, Degree: 3, Seed: 1}
	var resp Response
	for _, req := range []Request{
		{Op: OpOpen, Session: "x", Spec: &spec},
		{Op: OpColor, Session: "x", Algorithm: "greedy", Seed: 1},
	} {
		if err := srv.Do(&req, &resp); err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
	}
	srv.mu.RLock()
	ses := srv.sessions["x"]
	srv.mu.RUnlock()

	errs := make(chan error, 3)
	send := func(req Request) {
		var r Response
		errs <- srv.Do(&req, &r)
	}
	go send(Request{Op: OpColor, Session: "x", Algorithm: "greedy", Seed: 99})
	<-entered
	go send(Request{Op: OpVerify, Session: "x"})
	go send(Request{Op: OpVerify, Session: "x"})
	for len(ses.reqs) != 2 {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Do(&Request{Op: OpClose, Session: "x"}, &resp); err != nil {
		t.Fatal(err)
	}
	return srv.Stats()
}

// TestStatsCoalescedSurvivesEviction pins the server-wide coalesced count:
// a window of two verifies coalesces one, and the count survives the
// session's removal — the per-session rows cover only resident sessions, so
// a load report summing them lost every coalesce of an evicted hot session.
func TestStatsCoalescedSurvivesEviction(t *testing.T) {
	st := closedSessionWindows(t)
	if len(st.Sessions) != 0 || st.Coalesced != 1 {
		t.Errorf("after close: %d resident sessions, coalesced %d; want 0 and 1", len(st.Sessions), st.Coalesced)
	}
}

// TestStatsBatchesSurviveEviction pins the server-wide window counters that
// LoadReport.MeanBatch is computed from: three windows ran four requests,
// and both counts survive the session's removal. The close's shutdown
// sentinel runs no request, so its window is not counted.
func TestStatsBatchesSurviveEviction(t *testing.T) {
	st := closedSessionWindows(t)
	if len(st.Sessions) != 0 || st.Batches != 3 || st.Executed != 4 {
		t.Errorf("after close: %d resident sessions, batches %d, executed %d; want 0, 3 and 4",
			len(st.Sessions), st.Batches, st.Executed)
	}
}

// TestServeEvictionLRU pins the budget/eviction contract: opening past the
// resident budget evicts the least-recently-used session, which then behaves
// exactly like one that never existed.
func TestServeEvictionLRU(t *testing.T) {
	spec := graph.GeneratorSpec{Kind: "ba", N: 200, Degree: 3, Seed: 1}
	// Learn one session's estimate, then budget for two.
	probe := NewServer(Options{})
	var resp Response
	if err := probe.Do(&Request{Op: OpOpen, Session: "p", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	est := resp.EstimatedBytes
	probe.Close()
	if est <= 0 {
		t.Fatalf("estimate = %d, want > 0", est)
	}

	srv := NewServer(Options{ResidentBudget: 2*est + est/2})
	defer srv.Close()
	for _, name := range []string{"a", "b"} {
		s := spec
		if err := srv.Do(&Request{Op: OpOpen, Session: name, Spec: &s}, &resp); err != nil {
			t.Fatal(err)
		}
		if err := srv.Do(&Request{Op: OpColor, Session: name, Algorithm: "greedy", Seed: 1}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	if err := srv.Do(&Request{Op: OpVerify, Session: "a"}, &resp); err != nil {
		t.Fatal(err)
	}
	s := spec
	if err := srv.Do(&Request{Op: OpOpen, Session: "c", Spec: &s}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpVerify, Session: "b"}, &resp); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("evicted session b: err = %v, want ErrUnknownSession", err)
	}
	if err := srv.Do(&Request{Op: OpVerify, Session: "a"}, &resp); err != nil {
		t.Errorf("session a should have survived: %v", err)
	}
	st := srv.Stats()
	if st.Evicted != 1 {
		t.Errorf("evictions = %d, want 1", st.Evicted)
	}
	if st.ResidentEstimate != 2*est {
		t.Errorf("resident estimate = %d, want %d", st.ResidentEstimate, 2*est)
	}
	// An evicted name is reusable immediately.
	s = spec
	if err := srv.Do(&Request{Op: OpOpen, Session: "b", Spec: &s}, &resp); err != nil {
		t.Errorf("reopen of evicted b: %v", err)
	}
}

// TestServeErrors pins the error contract of the request surface.
func TestServeErrors(t *testing.T) {
	srv := NewServer(Options{})
	var resp Response
	if err := srv.Do(&Request{Op: OpVerify, Session: "nope"}, &resp); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("verify on unknown session: %v", err)
	}
	if err := srv.Do(&Request{Op: OpOpen, Session: "x"}, &resp); !errors.Is(err, ErrBadRequest) {
		t.Errorf("open without spec: %v", err)
	}
	spec := graph.GeneratorSpec{Kind: "star", N: 10}
	if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := srv.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); !errors.Is(err, ErrSessionExists) {
		t.Errorf("duplicate open: %v", err)
	}
	if err := srv.Do(&Request{Op: OpVerify, Session: "x"}, &resp); !errors.Is(err, ErrNotColored) {
		t.Errorf("verify before color: %v", err)
	}
	if err := srv.Do(&Request{Op: OpRecolor, Session: "x", Corrupt: 2, Seed: 1}, &resp); !errors.Is(err, ErrNotColored) {
		t.Errorf("recolor before color: %v", err)
	}
	if err := srv.Do(&Request{Op: OpColor, Session: "x", Algorithm: "no-such-alg"}, &resp); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown algorithm: %v", err)
	}
	if err := srv.Do(&Request{Op: Op("bogus"), Session: "x"}, &resp); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown op: %v", err)
	}
	srv.Close()
	if err := srv.Do(&Request{Op: OpVerify, Session: "x"}, &resp); !errors.Is(err, ErrServerClosed) {
		t.Errorf("request after close: %v", err)
	}
}

// TestHashColorsMatchesByteReference pins HashColors — its 256-node block
// definition and the two-byte fast path for colors in [0, 2¹⁶) — to a
// reference built from the standard library's byte-at-a-time FNV-64a: each
// block's digest over its colors as 8-byte little-endian words, then the
// digest of those digests as 8-byte little-endian words. Colorings are drawn
// from each color range the fast path splits (negative, below 2⁸, below
// 2¹⁶, above, and the int extremes) at lengths around the block boundaries.
func TestHashColorsMatchesByteReference(t *testing.T) {
	fnvWords := func(words []uint64) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for _, w := range words {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	reference := func(c coloring.Coloring) uint64 {
		var digests []uint64
		for lo := 0; lo < len(c); lo += 256 {
			var block []uint64
			for _, col := range c[lo:min(lo+256, len(c))] {
				block = append(block, uint64(col))
			}
			digests = append(digests, fnvWords(block))
		}
		return fnvWords(digests)
	}
	rng := rand.New(rand.NewSource(11))
	type draw struct {
		name string
		next func() int
	}
	draws := []draw{
		{"negative", func() int { return -1 - rng.Intn(1<<20) }},
		{"below2^8", func() int { return rng.Intn(1 << 8) }},
		{"below2^16", func() int { return rng.Intn(1 << 16) }},
		{"above2^16", func() int { return 1<<16 + rng.Intn(1<<40) }},
		{"extremes", func() int {
			return [...]int{math.MinInt, math.MaxInt, -1, 0, 1<<16 - 1, 1 << 16}[rng.Intn(6)]
		}},
	}
	ranges := draws
	draws = append(draws, draw{"mixed", func() int { return ranges[rng.Intn(len(ranges))].next() }})
	for _, d := range draws {
		for _, n := range []int{0, 1, 7, 255, 256, 257, 300, 1025} {
			c := coloring.New(n)
			for i := range c {
				c[i] = d.next()
			}
			if got, want := HashColors(c), reference(c); got != want {
				t.Errorf("%s n=%d: HashColors = %#x, byte reference = %#x", d.name, n, got, want)
			}
		}
	}
}

// TestBlockDigestsUpdateMatchesHashColors is the differential test of the
// incremental hash: random change scripts — single nodes, two changes in
// one block (ascending and not), the last partial block, every node, and
// none — applied to a coloring must leave the updated digests hashing equal
// to a fresh HashColors.
func TestBlockDigestsUpdateMatchesHashColors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	color := func() int {
		if rng.Intn(8) == 0 {
			return -1 - rng.Intn(3) + rng.Intn(2)<<20
		}
		return rng.Intn(100)
	}
	for _, n := range []int{1, 255, 256, 257, 1000, 1025} {
		c := coloring.New(n)
		for i := range c {
			c[i] = color()
		}
		var d blockDigests
		if got, want := d.full(c), HashColors(c); got != want {
			t.Fatalf("n=%d: full = %#x, HashColors = %#x", n, got, want)
		}
		for step := 0; step < 200; step++ {
			var changed []graph.NodeID
			kind := rng.Intn(5)
			switch kind {
			case 0: // one node
				changed = []graph.NodeID{graph.NodeID(rng.Intn(n))}
			case 1: // the same block twice, in either order
				lo := rng.Intn(n) / 256 * 256
				hi := min(lo+256, n)
				a, b := graph.NodeID(lo+rng.Intn(hi-lo)), graph.NodeID(lo+rng.Intn(hi-lo))
				changed = []graph.NodeID{a, b}
			case 2: // the last, possibly partial, block
				lo := (n - 1) / 256 * 256
				changed = []graph.NodeID{graph.NodeID(lo + rng.Intn(n-lo))}
			case 3: // every node
				for v := 0; v < n; v++ {
					changed = append(changed, graph.NodeID(v))
				}
			default: // nothing
			}
			for _, v := range changed {
				c[v] = color()
			}
			if got, want := d.update(c, changed), HashColors(c); got != want {
				t.Fatalf("n=%d step %d (script %d, changed %v): update = %#x, HashColors = %#x", n, step, kind, changed, got, want)
			}
		}
	}
}

// TestOpenSizeLimits pins MaxSessionNodes and MaxSessionEdges: specs whose
// closed-form size is past either limit are refused as bad-request without
// generating anything (so in milliseconds, not the minutes and gigabytes
// their graphs would take), while every spec the repository itself opens —
// the standard load mixes, E14's shapes, the d2served self-check and the
// perfbench sessions — is under both and opens.
func TestOpenSizeLimits(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	for _, spec := range []graph.GeneratorSpec{
		{Kind: "complete", N: 70000},
		{Kind: "gnp", N: 20000, P: 1},
		{Kind: "tree", N: 60, Degree: 2},
		{Kind: "grid", N: 1 << 20, M: 1 << 20},
		{Kind: "cliquechain", N: 1000, M: 1000},
		{Kind: "path", N: MaxSessionNodes + 1},
	} {
		start := time.Now()
		var resp Response
		err := srv.Do(&Request{Op: OpOpen, Session: "big", Spec: &spec}, &resp)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: open err = %v, want bad-request", spec, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refusal took %v", spec, d)
		}
	}

	var specs []graph.GeneratorSpec
	for _, mix := range StandardMixes(false) {
		specs = append(specs, *mix.sessionSpec(0))
	}
	specs = append(specs,
		graph.GeneratorSpec{Kind: "gnp-avg", N: 20000, P: 8},  // E14 deadline storm
		graph.GeneratorSpec{Kind: "ba", N: 2000, Degree: 3},   // E14 base, d2served self-check
		graph.GeneratorSpec{Kind: "gnp-avg", N: 100000, P: 8}, // perfbench serve-churn
	)
	for i, spec := range specs {
		nodes, edges, err := spec.Size()
		if err != nil || nodes > MaxSessionNodes || edges > MaxSessionEdges {
			t.Fatalf("%s: size %v nodes, %v edges (err %v) is over the session limits", spec, nodes, edges, err)
		}
		var resp Response
		if err := srv.Do(&Request{Op: OpOpen, Session: fmt.Sprint("s", i), Spec: &spec}, &resp); err != nil {
			t.Errorf("%s: open: %v", spec, err)
		}
	}
}
