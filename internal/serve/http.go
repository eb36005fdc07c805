package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/pkg/frontendsim"
	"repro/pkg/obs"
)

// MaxBodyBytes caps every request body (http.MaxBytesReader).  A
// simulation request is a few KB even with a full config override, and
// a suite request is a benchmark list plus one template, so 1 MiB is
// generous headroom while a hostile multi-GB POST is never read to the
// end.  An oversized body gets 413.
const MaxBodyBytes = 1 << 20

// ErrorBody is the JSON error envelope of every error response.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError answers status with err in the JSON error envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: err.Error()})
}

// DecodeJSON decodes one JSON value from r's body into v, capped at
// MaxBodyBytes and rejecting unknown fields.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// DecodeStatus maps a request-decoding failure to its HTTP status: an
// over-cap body is 413 (the client must shrink the request, not fix its
// syntax), anything else is the caller's malformed request, 400.
func DecodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// RequestContext derives a handler's context: the request's own,
// bounded by the caller's X-Deadline-Budget when the hop carries one.
func RequestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return frontendsim.ApplyDeadlineBudget(r.Context(), r.Header.Get(frontendsim.DeadlineBudgetHeader))
}

// Route is one entry of a service's route table: a method-qualified
// ServeMux pattern and its handler on the service's server S.
type Route[S any] struct {
	Pattern string
	Handler func(S, http.ResponseWriter, *http.Request)
}

// MetricsRoute serves the Prometheus exposition on top of a route table
// when the service has a metrics registry.
const MetricsRoute = "GET /metrics"

// Mux mounts routes, each bound to s, on a new ServeMux.  With reg set,
// every route is instrumented with the standard HTTP server metrics
// (the handler label is the route pattern) and reg's exposition is
// mounted on MetricsRoute.
func Mux[S any](routes []Route[S], s S, reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		h := func(w http.ResponseWriter, r *http.Request) { rt.Handler(s, w, r) }
		if reg != nil {
			mux.Handle(rt.Pattern, reg.InstrumentHandlerFunc(rt.Pattern, h))
		} else {
			mux.HandleFunc(rt.Pattern, h)
		}
	}
	if reg != nil {
		mux.Handle(MetricsRoute, reg.Handler())
	}
	return mux
}

// Describe lists the patterns of routes and MetricsRoute on one line
// (the services' startup banner).
func Describe[S any](routes []Route[S]) string {
	patterns := make([]string, 0, len(routes)+1)
	for _, rt := range routes {
		patterns = append(patterns, rt.Pattern)
	}
	return strings.Join(append(patterns, MetricsRoute), ", ")
}

// Readiness is the flag behind a service's /healthz verdict: ready from
// the zero value on, until SetReady(false) when shutdown begins, so
// health probes stop routing new work to a draining process while its
// in-flight and even new requests still complete.
type Readiness struct {
	draining atomic.Bool
}

// SetReady flips the /healthz verdict.
func (r *Readiness) SetReady(ready bool) { r.draining.Store(!ready) }

// Ready reports the /healthz verdict.
func (r *Readiness) Ready() bool { return !r.draining.Load() }
