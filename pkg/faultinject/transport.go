package faultinject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ErrDropped is the transport error a Drop rule produces — the
// client-visible shape of a connection reset.
var ErrDropped = errors.New("faultinject: connection dropped")

// maxPeekBody bounds how much request body the injector reads for
// BodyContains matching.  Simulation requests are a few KB; anything
// larger matches on its prefix.
const maxPeekBody = 1 << 20

// needsBody reports whether any rule matches on the request body, so
// body-free requests skip the read-and-restore.
func (in *Injector) needsBody() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Match.BodyContains != "" {
			return true
		}
	}
	return false
}

// peekBody reads (up to maxPeekBody of) body and returns the bytes plus
// a replacement reader serving the same content.
func peekBody(body io.ReadCloser) ([]byte, io.ReadCloser, error) {
	if body == nil {
		return nil, nil, nil
	}
	defer body.Close()
	raw, err := io.ReadAll(io.LimitReader(body, maxPeekBody))
	if err != nil {
		return nil, nil, err
	}
	return raw, io.NopCloser(bytes.NewReader(raw)), nil
}

// sleepCtx waits d, or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// transport is the client-side injector.
type transport struct {
	in    *Injector
	inner http.RoundTripper
}

// Transport wraps inner (nil selects http.DefaultTransport) so every
// request through it is evaluated against the injector's rules: plant
// it in an http.Client to fault a specific caller without touching the
// backend.
func (in *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &transport{in: in, inner: inner}
}

// RoundTrip implements http.RoundTripper.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if t.in.needsBody() && req.Body != nil {
		raw, rc, err := peekBody(req.Body)
		if err != nil {
			return nil, fmt.Errorf("faultinject: peek request body: %w", err)
		}
		body, req.Body = raw, rc
	}
	d := t.in.decide(req.Method, req.URL.Path, req.URL.Host, body)
	if err := sleepCtx(req.Context(), d.latency); err != nil {
		return nil, err
	}
	if d.drop {
		return nil, ErrDropped
	}
	if d.status > 0 {
		return syntheticResponse(req, d.status), nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	wrapResponseBody(req.Context(), t.in, resp, d)
	return resp, nil
}

// syntheticResponse builds the short-circuit error response of a Status
// rule: the backend is never contacted.
func syntheticResponse(req *http.Request, status int) *http.Response {
	body := fmt.Sprintf(`{"error":"faultinject: injected status %d"}`, status)
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// wrapResponseBody applies the body-stage injections (slow-body
// throttling, corrupt-byte) to resp in place.  Throttling waits end
// with ctx, the request's context.
func wrapResponseBody(ctx context.Context, in *Injector, resp *http.Response, d decision) {
	if d.slowBody == 0 && !d.corrupt {
		return
	}
	resp.Body = &bodyInjector{
		ctx:   ctx,
		in:    in,
		inner: resp.Body,
		delay: d.slowBody,

		corrupt: d.corrupt,
	}
}

// bodyInjector throttles and/or corrupts a response body stream.
type bodyInjector struct {
	ctx   context.Context
	in    *Injector
	inner io.ReadCloser
	delay time.Duration

	corrupt   bool
	corrupted bool
}

// slowChunk is the read granularity under slow-body throttling.
const slowChunk = 512

func (b *bodyInjector) Read(p []byte) (int, error) {
	if b.delay > 0 {
		if len(p) > slowChunk {
			p = p[:slowChunk]
		}
		if err := sleepCtx(b.ctx, b.delay); err != nil {
			return 0, err
		}
	}
	n, err := b.inner.Read(p)
	if n > 0 && b.corrupt && !b.corrupted {
		b.corrupted = true
		p[b.in.corruptIndex(n)] ^= 0xff
	}
	return n, err
}

func (b *bodyInjector) Close() error { return b.inner.Close() }
