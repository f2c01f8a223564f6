package delivery

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
)

// The HTTP delivery mechanism: JSON over loopback or LAN. The server
// side adapts a Service into an http.Handler; the client side
// implements Conn against that handler. Sentinel outcomes travel as a
// machine-readable code in the error body (the HTTP status is chosen
// to match, but the code string is authoritative), so a runner's
// control flow is transport-independent.

// Wire paths of the conversation.
const (
	pathSubmit    = "/v1/submit"
	pathClaim     = "/v1/claim"
	pathHeartbeat = "/v1/heartbeat"
	pathComplete  = "/v1/complete"
	pathFail      = "/v1/fail"
	pathStatus    = "/v1/status"
	pathResult    = "/v1/result"
)

// httpError is the wire form of a non-2xx outcome.
type httpError struct {
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// Sentinel ↔ wire-code mapping. A refusal keeps the coordinator's
// text, which says what was refused; the other outcomes decode bare.
var errCodes = []struct {
	err    error
	code   string
	status int
}{
	{ErrNoWork, "no_work", http.StatusServiceUnavailable},
	{ErrDone, "done", http.StatusGone},
	{ErrLeaseLost, "lease_lost", http.StatusConflict},
	{ErrNotDone, "not_done", http.StatusNotFound},
	{ErrRefused, "refused", http.StatusUnprocessableEntity},
}

func writeErr(w http.ResponseWriter, err error) {
	he := httpError{Error: err.Error()}
	status := http.StatusBadRequest
	for _, m := range errCodes {
		if errors.Is(err, m.err) {
			he.Code, status = m.code, m.status
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(he)
}

// decodeErr maps a non-2xx response body back to its sentinel.
func decodeErr(status int, body []byte) error {
	var he httpError
	if json.Unmarshal(body, &he) == nil && he.Code != "" {
		for _, m := range errCodes {
			if he.Code != m.code {
				continue
			}
			if m.err == ErrRefused {
				return fmt.Errorf("%w%s", ErrRefused, strings.TrimPrefix(he.Error, ErrRefused.Error()))
			}
			return m.err
		}
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return fmt.Errorf("delivery: coordinator returned %d: %s", status, msg)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// claimReq/completeReq are the request bodies that need more than a
// bare value.
type claimReq struct {
	Runner string `json:"runner"`
}
type heartbeatReq struct {
	Runner string `json:"runner"`
	Beat   Beat   `json:"beat"`
}
type completeReq struct {
	Runner  string          `json:"runner"`
	Shard   int             `json:"shard"`
	Partial json.RawMessage `json:"partial"`
}
type failReq struct {
	Runner  string `json:"runner"`
	Shard   int    `json:"shard"`
	Attempt int    `json:"attempt"`
	Msg     string `json:"msg"`
}

// Handler adapts a Service into the HTTP delivery mechanism's server
// side. Mount it on any mux or serve it directly.
func Handler(svc Service) http.Handler {
	mux := http.NewServeMux()
	post := func(path string, h func(w http.ResponseWriter, body []byte)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
			if err != nil {
				writeErr(w, fmt.Errorf("delivery: read request: %w", err))
				return
			}
			h(w, body)
		})
	}

	post(pathSubmit, func(w http.ResponseWriter, body []byte) {
		job, err := fleet.ParseJob(body)
		if err != nil {
			writeErr(w, err)
			return
		}
		if err := svc.Submit(job); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	post(pathClaim, func(w http.ResponseWriter, body []byte) {
		var req claimReq
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, fmt.Errorf("delivery: bad claim request: %w", err))
			return
		}
		task, err := svc.Claim(req.Runner)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, task)
	})
	post(pathHeartbeat, func(w http.ResponseWriter, body []byte) {
		var req heartbeatReq
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, fmt.Errorf("delivery: bad heartbeat request: %w", err))
			return
		}
		if err := svc.Heartbeat(req.Runner, req.Beat); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	post(pathComplete, func(w http.ResponseWriter, body []byte) {
		var req completeReq
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, fmt.Errorf("%w: bad complete request: %v", ErrRefused, err))
			return
		}
		p, err := fleet.ParsePartial(req.Partial)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: %w", ErrRefused, err))
			return
		}
		if err := svc.Complete(req.Runner, req.Shard, p); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	post(pathFail, func(w http.ResponseWriter, body []byte) {
		var req failReq
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, fmt.Errorf("delivery: bad fail request: %w", err))
			return
		}
		if err := svc.Fail(req.Runner, req.Shard, req.Attempt, req.Msg); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc(pathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, svc.Status())
	})
	mux.HandleFunc(pathResult, func(w http.ResponseWriter, r *http.Request) {
		b, err := svc.Result(r.URL.Query().Get("canonical") == "1")
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	return mux
}

// httpConn is the client side of the HTTP mechanism.
type httpConn struct {
	base string
	hc   *http.Client
}

// DialHTTP returns a Conn speaking to the coordinator at base (e.g.
// "http://127.0.0.1:9090"). No connection is made until the first
// call.
func DialHTTP(base string) Conn {
	return &httpConn{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// post sends v and decodes the response into out (ignored when nil).
// The request is built on ctx, so cancellation aborts it in flight —
// a runner shutting down does not wait out the 30 s client timeout
// against a dead coordinator.
func (c *httpConn) post(ctx context.Context, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeErr(resp.StatusCode, respBody)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(respBody, out)
}

func (c *httpConn) get(ctx context.Context, path string, out *[]byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return decodeErr(resp.StatusCode, body)
	}
	*out = body
	return nil
}

func (c *httpConn) Submit(ctx context.Context, job fleet.Job) error {
	return c.post(ctx, pathSubmit, job, nil)
}

func (c *httpConn) Claim(ctx context.Context, runner string) (Task, error) {
	var task Task
	if err := c.post(ctx, pathClaim, claimReq{Runner: runner}, &task); err != nil {
		return Task{}, err
	}
	return task, nil
}

func (c *httpConn) Heartbeat(ctx context.Context, runner string, beat Beat) error {
	return c.post(ctx, pathHeartbeat, heartbeatReq{Runner: runner, Beat: beat}, nil)
}

func (c *httpConn) Complete(ctx context.Context, runner string, shard int, p *fleet.Partial) error {
	b, err := p.JSON()
	if err != nil {
		return err
	}
	return c.post(ctx, pathComplete, completeReq{Runner: runner, Shard: shard, Partial: b}, nil)
}

func (c *httpConn) Fail(ctx context.Context, runner string, shard, attempt int, msg string) error {
	return c.post(ctx, pathFail, failReq{Runner: runner, Shard: shard, Attempt: attempt, Msg: msg}, nil)
}

func (c *httpConn) Status(ctx context.Context) (Status, error) {
	var body []byte
	if err := c.get(ctx, pathStatus, &body); err != nil {
		return Status{}, err
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

func (c *httpConn) Result(ctx context.Context, canonical bool) ([]byte, error) {
	path := pathResult
	if canonical {
		path += "?canonical=1"
	}
	var body []byte
	if err := c.get(ctx, path, &body); err != nil {
		return nil, err
	}
	return body, nil
}

func (c *httpConn) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
