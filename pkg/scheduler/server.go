package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// Server is the HTTP API of the suite scheduler (served by cmd/simsched).
//
//	POST   /v1/suites        JSON frontendsim.SuiteRequest -> JSON SuiteResult,
//	                         sharded across the backend ring; X-Cache reports
//	                         HIT (all shards from the scheduler store),
//	                         COALESCED, PARTIAL or MISS
//	POST   /v1/suites/stream same request, answered as application/x-ndjson:
//	                         one {"type":"shard"} line per completed shard
//	                         (cache hits first), then a terminal
//	                         {"type":"aggregate"} line byte-identical to the
//	                         blocking response, or {"type":"error"}
//	POST   /v1/simulations   JSON frontendsim.Request -> JSON Result, served
//	                         from the scheduler store or routed to the
//	                         request's home backend (ring passthrough);
//	                         either way the body is the backend's bytes
//	                         verbatim; X-Cache: HIT|MISS|COALESCED
//	GET    /v1/ring          ring topology, per-member health state and
//	                         dispatch counters
//	POST   /v1/ring/members  join a backend at runtime ({"url": ...})
//	DELETE /v1/ring/members  remove a backend at runtime ({"url": ...} or
//	                         ?url=)
//	GET    /v1/cache/stats   scheduler-tier response-store counters
//	GET    /metrics          Prometheus text exposition (with WithMetrics)
//	GET    /healthz          liveness
type Server struct {
	sched   *Scheduler
	members *membership.Registry
	metrics *obs.Registry
	mux     *http.ServeMux
	// ready gates /healthz: SetReady(false) flips it to 503 so load
	// balancers stop routing here while srv.Shutdown drains in-flight
	// suites.
	ready atomic.Bool
}

// DefaultMaxBodyBytes caps request bodies accepted by the scheduler
// API.  Suite requests are a benchmark list plus one configuration —
// a megabyte is orders of magnitude above any legitimate request, and
// the cap keeps a misbehaving client from buffering the node into the
// ground.  Oversized bodies are rejected with 413.
const DefaultMaxBodyBytes = 1 << 20

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithMembership wires the live member registry: GET /v1/ring reports
// per-member health, and the POST/DELETE /v1/ring/members admin verbs
// join and remove backends at runtime.  The caller is responsible for
// subscribing the scheduler to the registry's changes (see
// membership.Config.OnChange).
func WithMembership(reg *membership.Registry) ServerOption {
	return func(s *Server) { s.members = reg }
}

// WithMetrics mounts reg's exposition on GET /metrics and instruments
// every route with the standard HTTP server metrics.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = reg }
}

// NewServer builds the HTTP frontend over sched.
func NewServer(sched *Scheduler, opts ...ServerOption) *Server {
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.ready.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	s.handle("POST /v1/suites", s.handleSuite)
	s.handle("POST /v1/suites/stream", s.handleSuiteStream)
	s.handle("POST /v1/simulations", s.handleSimulate)
	s.handle("GET /v1/ring", s.handleRing)
	s.handle("POST /v1/ring/members", s.handleJoin)
	s.handle("DELETE /v1/ring/members", s.handleLeave)
	s.handle("GET /v1/cache/stats", s.handleCacheStats)
	s.handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, errors.New("scheduler: draining"))
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if s.metrics != nil {
		s.mux.Handle("GET /metrics", s.metrics.Handler())
	}
	return s
}

// handle mounts pattern, instrumented when a metrics registry is
// configured.  The handler label is the route pattern, so the duration
// histograms split by endpoint.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	if s.metrics != nil {
		s.mux.Handle(pattern, s.metrics.InstrumentHandlerFunc(pattern, h))
		return
	}
	s.mux.HandleFunc(pattern, h)
}

// SetReady flips the /healthz verdict.  cmd/simsched calls
// SetReady(false) when shutdown begins, so load balancers drain this
// frontend before srv.Shutdown stops accepting connections — in-flight
// suite runs (including open NDJSON streams) still complete.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// requestContext derives the handler context: the request's own,
// bounded by the caller's X-Deadline-Budget when the hop carries one.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return frontendsim.ApplyDeadlineBudget(r.Context(), r.Header.Get(frontendsim.DeadlineBudgetHeader))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: err.Error()})
}

// statusFor maps dispatch errors to HTTP statuses: client cancellations
// to 499, exhausted retries to 502, backend refusals to their own
// status, everything else (request validation) to 400.
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499
	}
	var ee *ExhaustedError
	if errors.As(err, &ee) {
		return http.StatusBadGateway
	}
	var be *BackendError
	if errors.As(err, &be) {
		return be.Status
	}
	return http.StatusBadRequest
}

// decodeStatus maps body-decode failures: an http.MaxBytesReader trip
// is 413 (the client must shrink the request, not fix its syntax),
// anything else is a plain 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody caps r.Body at the configured limit and decodes one JSON
// value into v, rejecting unknown fields.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var suite frontendsim.SuiteRequest
	if err := s.decodeBody(w, r, &suite); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("scheduler: decode suite request: %w", err))
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	res, served, err := s.sched.runSuite(ctx, suite, nil, false)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", served.XCache())
	frontendsim.WriteLine(w, res.AppendJSON)
}

// handleSuiteStream is handleSuite with incremental delivery: NDJSON,
// one "shard" line the moment each shard completes (scheduler-store
// hits first, then coalesced and dispatched shards in completion
// order), terminated by an "aggregate" line whose suite field is
// byte-identical to the blocking POST /v1/suites response body, or an
// "error" line if the run failed mid-stream.  Every line is flushed as
// it is written, so a client sees first results while slow shards are
// still walking the ring.
func (s *Server) handleSuiteStream(w http.ResponseWriter, r *http.Request) {
	var suite frontendsim.SuiteRequest
	if err := s.decodeBody(w, r, &suite); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("scheduler: decode suite request: %w", err))
		return
	}
	if err := suite.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the committed 200 to the wire now: the first shard may
		// be arbitrarily slow, and a client must be able to observe
		// (and abandon) the stream before any line arrives.
		flusher.Flush()
	}
	emit := func(line frontendsim.SuiteStreamLine) {
		frontendsim.WriteLine(w, line.AppendJSON)
		if flusher != nil {
			flusher.Flush()
		}
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	// A failed shard of a partial-results run becomes a "shard-error"
	// line: the stream keeps going and the terminal aggregate excludes it.
	res, _, err := s.sched.runSuite(ctx, suite, func(sh frontendsim.ShardResult) { emit(sh.Line()) }, false)
	if err != nil {
		emit(frontendsim.SuiteStreamLine{Type: "error", Error: err.Error()})
		return
	}
	emit(frontendsim.SuiteStreamLine{Type: "aggregate", Suite: res})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req frontendsim.Request
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("scheduler: decode request: %w", err))
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	out, source, err := s.sched.serve(ctx, req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source.String())
	w.Write(out.body)
}

// handleCacheStats reports the scheduler-tier response store's
// counters, in the same shape as simd's /v1/cache/stats (an empty tier
// list means the store is disabled).
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	tiers := s.sched.CacheStats()
	entries, hits, misses := resultstore.Totals(tiers)
	if tiers == nil {
		tiers = []resultstore.TierStats{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Entries   int                     `json:"entries"`
		Hits      uint64                  `json:"hits"`
		Misses    uint64                  `json:"misses"`
		Coalesced uint64                  `json:"coalesced"`
		Tiers     []resultstore.TierStats `json:"tiers"`
	}{Entries: entries, Hits: hits, Misses: misses, Coalesced: s.sched.Stats().Coalesced, Tiers: tiers})
}

// handleRing reports the ring topology (with per-member health when a
// membership registry is wired), the per-benchmark home nodes of a
// default-configuration suite, and the dispatch counters.
func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	assignment := map[string]string{}
	ring := s.sched.Ring()
	for _, bench := range frontendsim.Benchmarks() {
		if key, err := s.sched.eng.RequestKey(frontendsim.Request{Benchmark: bench}); err == nil {
			assignment[bench] = ring.Node(key)
		}
	}
	out := struct {
		Backends   []string          `json:"backends"`
		Assignment map[string]string `json:"assignment"`
		Stats      Stats             `json:"stats"`
		Epoch      uint64            `json:"epoch,omitempty"`
		Members    []membership.Info `json:"members,omitempty"`
		Membership *membership.Stats `json:"membership,omitempty"`
	}{Backends: ring.Nodes(), Assignment: assignment, Stats: s.sched.Stats()}
	if s.members != nil {
		out.Epoch = s.members.Epoch()
		out.Members = s.members.Snapshot()
		st := s.members.Stats()
		out.Membership = &st
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// memberRequest is the join/leave admin body.
type memberRequest struct {
	URL string `json:"url"`
}

// decodeMemberURL accepts the URL as a JSON body or a ?url= query
// parameter (DELETE bodies are awkward from curl).
func (s *Server) decodeMemberURL(w http.ResponseWriter, r *http.Request) (string, error) {
	if u := r.URL.Query().Get("url"); u != "" {
		return strings.TrimRight(u, "/"), nil
	}
	var req memberRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return "", fmt.Errorf("scheduler: decode member request: %w", err)
	}
	if req.URL == "" {
		return "", fmt.Errorf("scheduler: member url is required")
	}
	return strings.TrimRight(req.URL, "/"), nil
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if s.members == nil {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("scheduler: ring membership is static (no membership registry configured)"))
		return
	}
	url, err := s.decodeMemberURL(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if err := s.members.Join(url); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Epoch   uint64            `json:"epoch"`
		Members []membership.Info `json:"members"`
	}{Epoch: s.members.Epoch(), Members: s.members.Snapshot()})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	if s.members == nil {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("scheduler: ring membership is static (no membership registry configured)"))
		return
	}
	url, err := s.decodeMemberURL(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if err := s.members.Leave(url); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Epoch   uint64            `json:"epoch"`
		Members []membership.Info `json:"members"`
	}{Epoch: s.members.Epoch(), Members: s.members.Snapshot()})
}

// Describe returns a one-line routing summary (used by cmd/simsched
// startup logging).
func Describe() string {
	return strings.Join([]string{
		"POST /v1/suites",
		"POST /v1/suites/stream",
		"POST /v1/simulations",
		"GET/POST/DELETE /v1/ring[/members]",
		"GET /v1/cache/stats",
		"GET /metrics",
		"GET /healthz",
	}, ", ")
}
