package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Transport is the wire-agnostic request interface the load driver runs
// against: the in-process *Client implements it (zero-copy, zero-alloc), and
// HTTPTransport implements it over HTTP/JSON. Implementations need not be
// safe for concurrent use; the driver creates one per worker.
type Transport interface {
	Do(req *Request, resp *Response) error
}

// errorCode maps a sentinel error to a stable wire code (and HTTP status),
// so remote clients can discriminate the same way in-process callers errors.Is.
func errorCode(err error) (code string, status int) {
	switch {
	case err == nil:
		return "", http.StatusOK
	case errors.Is(err, ErrUnknownSession):
		return "unknown-session", http.StatusNotFound
	case errors.Is(err, ErrSessionExists):
		return "session-exists", http.StatusConflict
	case errors.Is(err, ErrNotColored):
		return "not-colored", http.StatusConflict
	case errors.Is(err, ErrServerClosed):
		return "server-closed", http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return "overloaded", http.StatusServiceUnavailable
	case errors.Is(err, ErrDraining):
		return "draining", http.StatusServiceUnavailable
	case errors.Is(err, ErrQuarantined):
		return "quarantined", http.StatusServiceUnavailable
	case errors.Is(err, ErrCanceled):
		return "canceled", http.StatusGatewayTimeout
	case errors.Is(err, ErrPanicked):
		return "panic", http.StatusInternalServerError
	case errors.Is(err, ErrBadRequest):
		return "bad-request", http.StatusBadRequest
	default:
		return "internal", http.StatusInternalServerError
	}
}

// retryable reports whether a wire code marks a transient rejection worth a
// client-side backoff-and-retry (the 503 family: the request was never
// executed, the server just refused it right now).
func retryable(code string) bool {
	switch code {
	case "overloaded", "draining", "quarantined":
		return true
	}
	return false
}

// codeError maps a wire code back to its sentinel (the reverse of errorCode);
// unknown codes surface the remote message verbatim.
func codeError(code, message string) error {
	switch code {
	case "":
		return nil
	case "unknown-session":
		return ErrUnknownSession
	case "session-exists":
		return ErrSessionExists
	case "not-colored":
		return ErrNotColored
	case "server-closed":
		return ErrServerClosed
	case "overloaded":
		return ErrOverloaded
	case "draining":
		return ErrDraining
	case "quarantined":
		return ErrQuarantined
	case "canceled":
		return ErrCanceled
	case "panic":
		return ErrPanicked
	case "bad-request":
		return ErrBadRequest
	default:
		return fmt.Errorf("serve: remote error: %s", message)
	}
}

// MaxRequestBytes bounds one request body on the wire, about a million
// Dirty node IDs. A larger body is refused with bad-request before it is
// decoded in full, so one client cannot make the server buffer an unbounded
// request.
const MaxRequestBytes = 8 << 20

// MaxSessionNodes and MaxSessionEdges bound the graph one open may build:
// a spec whose size (graph.GeneratorSpec.Size, expected edges for the
// random kinds) exceeds either is refused with bad-request before anything
// is generated. Without them one request such as {"kind":"complete",
// "n":70000} would make the server build billions of edges; ResidentBudget
// only evicts other sessions.
const (
	MaxSessionNodes = 1 << 24
	MaxSessionEdges = 1 << 26
)

// wireError is the JSON error body.
type wireError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// NewHandler wraps a Server in an http.Handler:
//
//	POST /v1/do      one Request in, one Response out (JSON)
//	GET  /v1/stats   the Stats snapshot
//	GET  /healthz    liveness
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/do", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		var resp Response
		// The request context links cancellation: a client that disconnects
		// (or whose request deadline passes server-side) stops burning kernel
		// time within O(one simulated round).
		if err := s.DoContext(r.Context(), &req, &resp); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, &resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		writeJSON(w, http.StatusOK, &st)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			// Fail readiness the moment a drain starts, so load balancers
			// hand traffic off while in-flight work finishes.
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code, status := errorCode(err)
	if retryable(code) {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, wireError{Code: code, Error: err.Error()})
}

// HTTPTransport drives a remote serve endpoint through the same Transport
// interface the in-process client satisfies, so the load driver measures a
// network deployment with the identical request schedule. Not safe for
// concurrent use (per-worker buffers); create one per load worker.
type HTTPTransport struct {
	base   string // e.g. "http://127.0.0.1:8080"
	client *http.Client
	buf    bytes.Buffer
}

// NewHTTPTransport builds a transport against base (scheme://host:port).
// client may be nil for http.DefaultClient.
func NewHTTPTransport(base string, client *http.Client) *HTTPTransport {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPTransport{base: base, client: client}
}

// Do posts the request to /v1/do and decodes the response or error.
func (t *HTTPTransport) Do(req *Request, resp *Response) error {
	t.buf.Reset()
	if err := json.NewEncoder(&t.buf).Encode(req); err != nil {
		return err
	}
	httpResp, err := t.client.Post(t.base+"/v1/do", "application/json", &t.buf)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var we wireError
		if err := json.NewDecoder(httpResp.Body).Decode(&we); err != nil {
			return fmt.Errorf("serve: remote status %d", httpResp.StatusCode)
		}
		return codeError(we.Code, we.Error)
	}
	*resp = Response{}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}
