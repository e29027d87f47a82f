package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"d2color/internal/graph"
)

// TestHTTPTransportRoundTrip pins that the HTTP layer is a faithful carrier:
// the same request sequence through httptest + HTTPTransport produces the
// same responses (hash, palette, metrics, repair counters) as a direct
// in-process client against an identical server.
func TestHTTPTransportRoundTrip(t *testing.T) {
	spec := graph.GeneratorSpec{Kind: "ba", N: 300, Degree: 3, Seed: 6}
	reqs := []Request{
		{Op: OpOpen, Session: "g", Spec: &spec},
		{Op: OpColor, Session: "g", Algorithm: "greedy", Seed: 2},
		{Op: OpVerify, Session: "g"},
		{Op: OpRecolor, Session: "g", Corrupt: 4, Seed: 3},
		{Op: OpVerify, Session: "g"},
	}

	run := func(tr Transport) []Response {
		var out []Response
		for i := range reqs {
			req := reqs[i]
			var resp Response
			if err := tr.Do(&req, &resp); err != nil {
				t.Fatalf("%s: %v", req.Op, err)
			}
			resp.Stats = nil
			out = append(out, resp)
		}
		return out
	}

	direct := NewServer(Options{})
	defer direct.Close()
	want := run(direct.NewClient())

	remote := NewServer(Options{})
	defer remote.Close()
	ts := httptest.NewServer(NewHandler(remote))
	defer ts.Close()
	got := run(NewHTTPTransport(ts.URL, ts.Client()))

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("response %d over HTTP %+v != direct %+v", i, got[i], want[i])
		}
	}

	// Stats endpoint decodes and reflects the traffic.
	var resp Response
	if err := NewHTTPTransport(ts.URL, ts.Client()).Do(&Request{Op: OpStats}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || resp.Stats.Opened != 1 || len(resp.Stats.Sessions) != 1 {
		t.Errorf("stats over HTTP: %+v", resp.Stats)
	}
}

// TestHTTPErrorMapping pins that sentinel errors survive the wire: a remote
// client can errors.Is-discriminate exactly like an in-process caller.
func TestHTTPErrorMapping(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	tr := NewHTTPTransport(ts.URL, ts.Client())

	var resp Response
	if err := tr.Do(&Request{Op: OpVerify, Session: "nope"}, &resp); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session over HTTP: %v", err)
	}
	spec := graph.GeneratorSpec{Kind: "star", N: 8}
	if err := tr.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := tr.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); !errors.Is(err, ErrSessionExists) {
		t.Errorf("duplicate open over HTTP: %v", err)
	}
	if err := tr.Do(&Request{Op: OpVerify, Session: "x"}, &resp); !errors.Is(err, ErrNotColored) {
		t.Errorf("verify before color over HTTP: %v", err)
	}
	if err := tr.Do(&Request{Op: OpColor, Session: "x", Algorithm: "no-such"}, &resp); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown algorithm over HTTP: %v", err)
	}

	// Bad client input is bad-request, not internal: an unknown generator
	// kind, a spec past the session limits, and a dirty node outside the
	// graph.
	bogus := graph.GeneratorSpec{Kind: "bogus", N: 8}
	if err := tr.Do(&Request{Op: OpOpen, Session: "b", Spec: &bogus}, &resp); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown generator kind over HTTP: %v", err)
	}
	huge := graph.GeneratorSpec{Kind: "complete", N: 70000}
	if err := tr.Do(&Request{Op: OpOpen, Session: "h", Spec: &huge}, &resp); !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversized spec over HTTP: %v", err)
	}
	if err := tr.Do(&Request{Op: OpColor, Session: "x", Algorithm: "greedy"}, &resp); err != nil {
		t.Fatal(err)
	}
	var before Response
	if err := tr.Do(&Request{Op: OpVerify, Session: "x"}, &before); err != nil || !before.Valid {
		t.Fatalf("verify: valid=%v err=%v", before.Valid, err)
	}
	for _, dirty := range [][]graph.NodeID{{3, 8}, {-1}} {
		if err := tr.Do(&Request{Op: OpRecolor, Session: "x", Dirty: dirty}, &resp); !errors.Is(err, ErrBadRequest) {
			t.Errorf("recolor of dirty %v over HTTP: %v", dirty, err)
		}
	}
	// The refused recolors left the certificate and the cached hash alone:
	// the next verify is still a certified recheck with the same answer.
	if ses := sessionState(t, srv, "x"); ses.stale || !ses.hashed || !ses.complete {
		t.Errorf("bad recolor voided session state: stale=%v hashed=%v complete=%v", ses.stale, ses.hashed, ses.complete)
	}
	var after Response
	if err := tr.Do(&Request{Op: OpVerify, Session: "x"}, &after); err != nil || after != before {
		t.Errorf("verify after a refused recolor: %+v (err %v), want %+v", after, err, before)
	}
}

// TestHTTPBodyLimit pins MaxRequestBytes: a body of exactly the limit is
// decoded (its session name is simply unknown), a body one byte over it is
// refused as bad-request, and the server answers the next request as usual.
func TestHTTPBodyLimit(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()

	post := func(size int) (int, wireError) {
		t.Helper()
		const prefix, suffix = `{"op":"verify","session":"`, `"}`
		body := prefix + strings.Repeat("s", size-len(prefix)-len(suffix)) + suffix
		resp, err := ts.Client().Post(ts.URL+"/v1/do", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var we wireError
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
			t.Fatalf("%d-byte body: decoding the error body: %v", size, err)
		}
		return resp.StatusCode, we
	}
	if status, we := post(MaxRequestBytes); status != http.StatusNotFound || we.Code != "unknown-session" {
		t.Errorf("body at the limit: status %d code %q, want 404 unknown-session", status, we.Code)
	}
	if status, we := post(MaxRequestBytes + 1); status != http.StatusBadRequest || we.Code != "bad-request" {
		t.Errorf("body one byte over the limit: status %d code %q, want 400 bad-request", status, we.Code)
	}

	tr := NewHTTPTransport(ts.URL, ts.Client())
	spec := graph.GeneratorSpec{Kind: "star", N: 8}
	var resp Response
	if err := tr.Do(&Request{Op: OpOpen, Session: "x", Spec: &spec}, &resp); err != nil {
		t.Fatalf("request after an over-limit body: %v", err)
	}
	if err := tr.Do(&Request{Op: OpColor, Session: "x", Algorithm: "greedy"}, &resp); err != nil || !resp.Valid {
		t.Fatalf("color after an over-limit body: valid=%v err=%v", resp.Valid, err)
	}
}
