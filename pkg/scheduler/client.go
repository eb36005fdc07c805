package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
)

// BackendError is a simd backend's refusal or failure to serve one
// request: a non-2xx HTTP response.  Transport-level failures (backend
// down, connection reset) are not BackendErrors; the dispatcher treats
// those as retryable.
type BackendError struct {
	Node   string // backend base URL
	Status int    // HTTP status code
	Msg    string // error message from the backend's JSON envelope
}

// Error implements error.
func (e *BackendError) Error() string {
	return fmt.Sprintf("scheduler: backend %s: status %d: %s", e.Node, e.Status, e.Msg)
}

// Retryable reports whether another backend could plausibly serve the
// request: server-side failures are retryable, request errors (4xx —
// the request itself is invalid, every backend would refuse it) are not.
func (e *BackendError) Retryable() bool {
	return e.Status >= 500
}

// Client posts simulation requests to simd backends.
type Client struct {
	hc *http.Client
}

// NewClient wraps hc (nil selects http.DefaultClient).  Timeouts and
// transport tuning belong to the supplied client; the dispatcher bounds
// each call with the request context.
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{hc: hc}
}

// Simulate posts req to node's POST /v1/simulations and returns the
// response body verbatim — simd's stored representation of the result —
// together with its aggregation view (frontendsim.DecodeResultView, so
// suite responses write the body itself back out, and Full decodes the
// rest).  The view validates bytes from another process before the
// scheduler caches or serves them, as strictly as a full decode: a body
// json.Unmarshal would refuse is a retryable failure.
// Cancellation of ctx aborts the in-flight HTTP request.
func (c *Client) Simulate(ctx context.Context, node string, req frontendsim.Request) ([]byte, *frontendsim.Result, error) {
	reqBody, err := json.Marshal(req)
	if err != nil {
		return nil, nil, fmt.Errorf("scheduler: marshal request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/simulations", bytes.NewReader(reqBody))
	if err != nil {
		return nil, nil, fmt.Errorf("scheduler: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if budget := frontendsim.EncodeDeadlineBudget(ctx); budget != "" {
		// Propagate the caller's remaining deadline so the backend bounds
		// its own work: a retried shard never outlives the patience of
		// the caller that asked for it.
		hreq.Header.Set(frontendsim.DeadlineBudgetHeader, budget)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		// Transport failure: wrap with the node so retries are traceable.
		return nil, nil, fmt.Errorf("scheduler: backend %s: %w", node, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, nil, &BackendError{Node: node, Status: resp.StatusCode, Msg: backendMessage(resp.Body)}
	}
	// Close as soon as the body is read: the round trip ends here, and
	// validating the body below is the scheduler's own work.
	body, err := readBody(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("scheduler: backend %s: read result: %w", node, err)
	}
	res, err := frontendsim.DecodeResultView(body)
	if err != nil {
		return nil, nil, fmt.Errorf("scheduler: backend %s: decode result: %w", node, err)
	}
	return body, res, nil
}

// bodyBufs recycles the buffers backend responses are read into (a
// sync.Pool drops its entries across GCs, so one outsized body is not
// kept alive).
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads r to EOF, so the keep-alive connection returns to the
// pool, and copies the body out at its exact size: cached bytes carry no
// slack capacity, and a read costs one allocation in the steady state.
func readBody(r io.Reader) ([]byte, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	return bytes.Clone(buf.Bytes()), err
}

// backendMessage extracts the error string from simd's JSON envelope,
// falling back to the raw (truncated) body.
func backendMessage(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return err.Error()
	}
	var env serve.ErrorBody
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		return env.Error
	}
	return string(bytes.TrimSpace(raw))
}
