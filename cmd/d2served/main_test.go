package main

import (
	"strings"
	"testing"
	"time"

	"d2color/internal/serve"
)

func TestSelfcheck(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-selfcheck"}, &sb); err != nil {
		t.Fatalf("selfcheck: %v\noutput:\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"open:", "color:", "valid=true", "recolor:", "stats:", "selfcheck ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("selfcheck output missing %q:\n%s", want, out)
		}
	}
}

func TestSelfcheckUnbatched(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-selfcheck", "-unbatched", "-workers", "2"}, &sb); err != nil {
		t.Fatalf("selfcheck (unbatched, 2 workers): %v\noutput:\n%s", err, sb.String())
	}
}

// TestHTTPServerBoundsSlowClients pins the connection bounds both listeners
// (the daemon's and the selfcheck's) are built with: a zero value here would
// let a client that never finishes its headers hold a connection forever.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	srv := serve.NewServer(serve.Options{})
	defer srv.Close()
	hs := newHTTPServer(srv)
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.Handler == nil {
		t.Error("server has no handler")
	}
}
