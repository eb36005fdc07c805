package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ControlPrefix is the path prefix under which a Proxy serves its
// injector's control API; everything else is forwarded to the target.
const ControlPrefix = "/__faults"

// Proxy is a fault-injecting reverse proxy: it forwards every request
// to one target backend, applying the injector's rules on the way
// through — the wire-level stand-in for a flaky network path or a
// misbehaving replica, without touching either endpoint's code.
//
// The injector's control API is mounted under /__faults (ControlPrefix)
// on the proxy itself, so a test or demo can install and remove rules
// with plain HTTP while traffic flows.
type Proxy struct {
	target string
	in     *Injector
	client *http.Client
	ctrl   http.Handler
}

// NewProxy returns a proxy forwarding to target (a base URL such as
// "http://127.0.0.1:8723") through in's rules.  client performs the
// upstream requests (nil selects a plain http.Client using
// http.DefaultTransport).
func NewProxy(target string, in *Injector, client *http.Client) *Proxy {
	if client == nil {
		client = &http.Client{}
	}
	return &Proxy{
		target: strings.TrimRight(target, "/"),
		in:     in,
		client: client,
		ctrl:   in.ControlHandler(),
	}
}

// Target returns the backend base URL the proxy forwards to.
func (p *Proxy) Target() string { return p.target }

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, ControlPrefix) {
		http.StripPrefix(ControlPrefix, p.ctrl).ServeHTTP(w, r)
		return
	}
	var body []byte
	if r.Body != nil {
		raw, err := io.ReadAll(io.LimitReader(r.Body, maxPeekBody))
		r.Body.Close()
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"faultinject: read body: %v"}`, err), http.StatusBadGateway)
			return
		}
		body = raw
	}

	d := p.in.decide(r.Method, r.URL.Path, p.target, body)
	if err := sleepCtx(r.Context(), d.latency); err != nil {
		panic(http.ErrAbortHandler)
	}
	if d.drop {
		// Abort the connection without a response — the client sees a
		// transport-level failure, exactly like a mid-flight reset.
		panic(http.ErrAbortHandler)
	}
	if d.status > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(d.status)
		fmt.Fprintf(w, `{"error":"faultinject: injected status %d"}`, d.status)
		return
	}

	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		p.target+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"faultinject: build upstream request: %v"}`, err), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.client.Do(out)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"faultinject: upstream: %v"}`, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	wrapResponseBody(r.Context(), p.in, resp, d)

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				// NDJSON streams through the proxy must keep their
				// per-line delivery: flush every chunk.
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// maxPeekBody bounds how much request body the proxy reads for
// BodyContains matching.  Simulation requests are a few KB; anything
// larger matches on its prefix.
const maxPeekBody = 1 << 20

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

// ControlHandler serves the injector's runtime rule API:
//
//	GET    /rules        the rule set with per-rule injection counts
//	POST   /rules        add a Rule (JSON body); responds {"id": ...},
//	                     or 400 for a rule that fails Rule.Validate
//	DELETE /rules?id=ID  remove one rule
//	POST   /reset        remove every rule
//	GET    /stats        cumulative injection counters
func (in *Injector) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /rules", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, in.Rules())
	})
	mux.HandleFunc("POST /rules", func(w http.ResponseWriter, r *http.Request) {
		var rule Rule
		dec := json.NewDecoder(io.LimitReader(r.Body, maxPeekBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rule); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":"faultinject: decode rule: %v"}`, err), http.StatusBadRequest)
			return
		}
		if err := rule.Validate(); err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
			return
		}
		writeJSON(w, struct {
			ID string `json:"id"`
		}{ID: in.Add(rule)})
	})
	mux.HandleFunc("DELETE /rules", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, `{"error":"faultinject: ?id= is required"}`, http.StatusBadRequest)
			return
		}
		if !in.Remove(id) {
			http.Error(w, fmt.Sprintf(`{"error":"faultinject: unknown rule %q"}`, id), http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Removed string `json:"removed"`
		}{Removed: id})
	})
	mux.HandleFunc("POST /reset", func(w http.ResponseWriter, _ *http.Request) {
		in.Reset()
		writeJSON(w, struct {
			OK bool `json:"ok"`
		}{OK: true})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, in.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
