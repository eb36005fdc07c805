package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
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
//	GET    /healthz          readiness (503 while draining)
type Server struct {
	// Readiness gates /healthz: SetReady(false) flips it to 503 so load
	// balancers stop routing here while the drain completes in-flight
	// suites.
	serve.Readiness

	sched   *Scheduler
	members *membership.Registry
	metrics *obs.Registry
	mux     *http.ServeMux
}

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
	s := &Server{sched: sched}
	for _, opt := range opts {
		opt(s)
	}
	s.mux = serve.Mux(routes, s, s.metrics)
	return s
}

// routes is simsched's route table: NewServer mounts it and Describe
// lists it.  GET /metrics is mounted on top with WithMetrics.
var routes = []serve.Route[*Server]{
	{Pattern: "POST /v1/suites", Handler: (*Server).handleSuite},
	{Pattern: "POST /v1/suites/stream", Handler: (*Server).handleSuiteStream},
	{Pattern: "POST /v1/simulations", Handler: (*Server).handleSimulate},
	{Pattern: "GET /v1/ring", Handler: (*Server).handleRing},
	{Pattern: "POST /v1/ring/members", Handler: func(s *Server, w http.ResponseWriter, r *http.Request) {
		s.handleMember(w, r, (*membership.Registry).Join, http.StatusBadRequest)
	}},
	{Pattern: "DELETE /v1/ring/members", Handler: func(s *Server, w http.ResponseWriter, r *http.Request) {
		s.handleMember(w, r, (*membership.Registry).Leave, http.StatusNotFound)
	}},
	{Pattern: "GET /v1/cache/stats", Handler: func(s *Server, w http.ResponseWriter, r *http.Request) {
		s.sched.reads.ServeCacheStats(w, r)
	}},
	{Pattern: "GET /healthz", Handler: (*Server).handleHealthz},
}

// Describe returns a one-line routing summary (used by cmd/simsched
// startup logging).
func Describe() string { return serve.Describe(routes) }

// handleHealthz is readiness: 503 while draining, 200 otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("scheduler: draining"))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
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

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var suite frontendsim.SuiteRequest
	if err := serve.DecodeJSON(w, r, &suite); err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), fmt.Errorf("scheduler: decode suite request: %w", err))
		return
	}
	ctx, cancel := serve.RequestContext(r)
	defer cancel()
	res, served, err := s.sched.runSuite(ctx, suite, nil, false)
	if err != nil {
		serve.WriteError(w, statusFor(err), err)
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
	if err := serve.DecodeJSON(w, r, &suite); err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), fmt.Errorf("scheduler: decode suite request: %w", err))
		return
	}
	if err := suite.Validate(); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
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
	ctx, cancel := serve.RequestContext(r)
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
	if err := serve.DecodeJSON(w, r, &req); err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), fmt.Errorf("scheduler: decode request: %w", err))
		return
	}
	ctx, cancel := serve.RequestContext(r)
	defer cancel()
	body, _, source, err := s.sched.serve(ctx, req)
	if err != nil {
		serve.WriteError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source.String())
	w.Write(body)
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
	if err := serve.DecodeJSON(w, r, &req); err != nil {
		return "", fmt.Errorf("scheduler: decode member request: %w", err)
	}
	if req.URL == "" {
		return "", fmt.Errorf("scheduler: member url is required")
	}
	return strings.TrimRight(req.URL, "/"), nil
}

// handleMember runs one ring admin verb, join or leave, on the member
// the request names and answers the new epoch and members; status is
// the verb's refusal.
func (s *Server) handleMember(w http.ResponseWriter, r *http.Request, verb func(*membership.Registry, string) error, status int) {
	if s.members == nil {
		serve.WriteError(w, http.StatusNotImplemented,
			fmt.Errorf("scheduler: ring membership is static (no membership registry configured)"))
		return
	}
	url, err := s.decodeMemberURL(w, r)
	if err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), err)
		return
	}
	if err := verb(s.members, url); err != nil {
		serve.WriteError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Epoch   uint64            `json:"epoch"`
		Members []membership.Info `json:"members"`
	}{Epoch: s.members.Epoch(), Members: s.members.Snapshot()})
}
