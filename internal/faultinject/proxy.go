package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"time"

	"repro/internal/serve"
)

// Proxy is a fault-injecting reverse proxy: it forwards every request
// to one target backend, applying the injector's rules on the way
// through — the wire-level stand-in for a flaky network path or a
// misbehaving replica, without touching either endpoint's code.
type Proxy struct {
	in *Injector
	rp *httputil.ReverseProxy
}

// NewProxy returns a proxy forwarding to target (a base URL such as
// "http://127.0.0.1:8723") through in's rules.
func NewProxy(target string, in *Injector) (*Proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	// NDJSON streams through the proxy keep their per-line delivery.
	rp.FlushInterval = -1
	rp.ErrorHandler = func(w http.ResponseWriter, _ *http.Request, err error) {
		serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("faultinject: upstream: %v", err))
	}
	return &Proxy{in: in, rp: rp}, nil
}

// maxPeekBody bounds how much of the request body BodyContains matches
// against.  Simulation requests are a few KB; anything larger matches
// on its prefix, and is still forwarded whole.
const maxPeekBody = 1 << 20

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, fmt.Errorf("faultinject: read body: %v", err))
		return
	}

	d := p.in.decide(r.URL.Path, body[:min(len(body), maxPeekBody)])
	if d.Latency > 0 {
		select {
		case <-time.After(d.Latency):
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		}
	}
	if d.Drop {
		// Abort the connection without a response — the client sees a
		// transport-level failure, exactly like a mid-flight reset.
		panic(http.ErrAbortHandler)
	}
	if d.Status > 0 {
		serve.WriteError(w, d.Status, fmt.Errorf("faultinject: injected status %d", d.Status))
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	p.rp.ServeHTTP(w, r)
}
