package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// Server is the HTTP API of the simulation service; routes lists its
// endpoints.  Whole suites fan in through cmd/simsched, which over a
// single simd replica is the single-node mode.
type Server struct {
	// Readiness gates /healthz: SetReady(false) flips the health check
	// to 503 so the scheduler's probes quarantine this backend
	// (draining) while in-flight and even new requests still complete.
	serve.Readiness

	eng     *frontendsim.Engine
	store   resultstore.Store
	mux     *http.ServeMux
	metrics *obs.Registry
	// adm bounds concurrent simulations at the Engine's worker count and
	// (with WithAdmission) the queue of requests waiting for a slot:
	// excess load is shed with 503 + Retry-After instead of stacking
	// handler goroutines behind clients that will give up anyway.
	adm *admission
	// reads serves a canonical request from the response store, or runs
	// it once for every concurrent identical caller (run).
	reads *serve.ReadThrough[frontendsim.Request, *frontendsim.Result]
}

// Option configures NewServer / NewServerWithStore.
type Option func(*Server)

// WithMetrics mounts reg's exposition on GET /metrics, instruments
// every route with the standard HTTP server metrics, and re-exports
// the response store and coalescing counters.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithAdmission bounds the slot wait queue: at most maxQueue requests
// may wait for a simulation slot (further arrivals are shed
// immediately), and no request waits longer than maxWait.  Shed
// requests get 503 with a Retry-After header and count in
// simd_shed_total{reason}.  Zero for either disables that bound; the
// zero-value server queues without limit (the pre-admission-control
// behaviour).
func WithAdmission(maxQueue int, maxWait time.Duration) Option {
	return func(s *Server) {
		s.adm.maxQueue = maxQueue
		s.adm.maxWait = maxWait
	}
}

// NewServer builds a Server over eng with an in-memory LRU response
// store of cacheSize entries (cacheSize < 1 disables caching).  At most
// eng.Workers() simulations run concurrently.
func NewServer(eng *frontendsim.Engine, cacheSize int, opts ...Option) *Server {
	return NewServerWithStore(eng, resultstore.NewMemory(cacheSize), opts...)
}

// NewServerWithStore builds a Server over eng serving its responses
// through store (a disk-backed or tiered store makes cached results
// survive restarts).  The server owns no other replica's results: a
// disk store's directory is locked to one process.  The caller owns the
// store's lifecycle and closes it after shutting the server down.
func NewServerWithStore(eng *frontendsim.Engine, store resultstore.Store, opts ...Option) *Server {
	s := &Server{
		eng:   eng,
		store: store,
		adm:   newAdmission(eng.Workers(), 0, 0),
	}
	s.reads = serve.NewReadThrough(store, nil, s.run)
	for _, opt := range opts {
		opt(s)
	}
	s.mux = serve.Mux(routes, s, s.metrics)
	if s.metrics != nil {
		s.registerMetrics(s.metrics)
	}
	return s
}

// routes is simd's route table: NewServerWithStore mounts it and
// Describe lists it.  GET /metrics is mounted on top with WithMetrics.
var routes = []serve.Route[*Server]{
	{Pattern: "POST /v1/simulations", Handler: (*Server).handleSimulate},
	{Pattern: "POST /v1/simulations/stream", Handler: (*Server).handleStream},
	{Pattern: "GET /v1/benchmarks", Handler: (*Server).handleBenchmarks},
	{Pattern: "GET /v1/cache/stats", Handler: func(s *Server, w http.ResponseWriter, r *http.Request) {
		s.reads.ServeCacheStats(w, r)
	}},
	{Pattern: "GET /healthz", Handler: (*Server).handleHealthz},
}

// Describe returns a one-line routing summary (used by cmd/simd startup
// logging).
func Describe() string { return serve.Describe(routes) }

// registerMetrics re-exports the server's counters on reg.
func (s *Server) registerMetrics(reg *obs.Registry) {
	s.reads.RegisterStoreOps(reg, "simd_store_ops_total", "Response store counters, by tier.")
	reg.Sampled("simd_store_entries", "Response store entries, by tier.",
		obs.TypeGauge, []string{"tier"}, func(emit func([]string, float64)) {
			for _, t := range s.store.Stats() {
				emit([]string{t.Tier}, float64(t.Entries))
			}
		})
	reg.Sampled("simd_coalesced_total", "Requests served by joining an in-flight identical simulation.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.reads.Coalesced()))
		})
	reg.Sampled("simd_slots_in_use", "Simulation slots currently running (capacity = engine workers).",
		obs.TypeGauge, nil, func(emit func([]string, float64)) {
			emit(nil, float64(len(s.adm.slots)))
		})
	reg.Sampled("simd_queue_depth", "Requests currently waiting for a simulation slot.",
		obs.TypeGauge, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.adm.waiting.Load()))
		})
	reg.Sampled("simd_shed_total", "Requests shed by admission control, by reason.",
		obs.TypeCounter, []string{"reason"}, func(emit func([]string, float64)) {
			emit([]string{ShedQueueFull}, float64(s.adm.shedQueue.Load()))
			emit([]string{ShedWaitDeadline}, float64(s.adm.shedWait.Load()))
		})
	reg.Sampled("simd_ready", "1 while the server reports ready on /healthz, 0 while draining.",
		obs.TypeGauge, nil, func(emit func([]string, float64)) {
			if s.Ready() {
				emit(nil, 1)
			} else {
				emit(nil, 0)
			}
		})
}

// healthProbeKey is the store key the readiness check peeks; it never
// exists, the probe only cares whether the store answers at all.
const healthProbeKey = "healthz-store-probe"

// handleHealthz is the readiness check the membership registry probes:
// 503 while draining (SetReady(false)) or when the response store
// errors (closed or a failed disk tier) — a backend that cannot serve
// its store should be quarantined, not handed traffic.  The store peek
// stays out of the cache hit/miss counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("simd: draining"))
		return
	}
	if _, _, err := resultstore.Peek(r.Context(), s.store, healthProbeKey); err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("simd: response store unavailable: %w", err))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusFor maps run errors to HTTP statuses: client cancellations map
// to 499 (nginx convention); a simulator fault (*frontendsim.FaultError)
// is 422, because the run is deterministic and every replica would fault
// on the same request — a 4xx keeps the scheduler from walking the ring
// or quarantining the replica.  Everything else is an internal failure
// and must be a 5xx.  Every handler validates the request *before* the
// run starts (decode and validation failures are 400 at the handler), so
// such an error is the server's fault — a marshalling failure, a future
// store fault.  Reporting those as 4xx would make the scheduler's retry
// classifier treat a backend fault as permanent and abort its ring walk
// instead of failing over.
func statusFor(err error) int {
	var se *ShedError
	if errors.As(err, &se) {
		return http.StatusServiceUnavailable
	}
	var fe *frontendsim.FaultError
	if errors.As(err, &fe) {
		return http.StatusUnprocessableEntity
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499
	}
	return http.StatusInternalServerError
}

// writeRunError is serve.WriteError for errors out of a run: it adds the
// Retry-After header when admission control shed the request, so the
// 503 tells clients *when* to come back, not just to go away.
func writeRunError(w http.ResponseWriter, err error) {
	var se *ShedError
	if errors.As(err, &se) {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfterSeconds()))
	}
	serve.WriteError(w, statusFor(err), err)
}

// decodeRequest decodes a simulation request with the body cap applied
// and validates it, so every error after a successful decode is the
// server's own (see statusFor).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (frontendsim.Request, error) {
	var req frontendsim.Request
	if err := serve.DecodeJSON(w, r, &req); err != nil {
		return req, fmt.Errorf("simd: decode request: %w", err)
	}
	return req, req.Validate()
}

// run is the read-through's compute: one engine run in an admitted
// simulation slot, marshalled as the response body.
func (s *Server) run(ctx context.Context, _ string, req frontendsim.Request) ([]byte, *frontendsim.Result, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.adm.release()
	res, err := s.eng.Run(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, nil, err
	}
	return append(b, '\n'), res, nil
}

// handleSimulate runs one simulation, serving repeats of the same
// canonical request from the response store and single-flighting
// concurrent identical requests onto one engine run.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), err)
		return
	}
	key, err := s.eng.RequestKey(req)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := serve.RequestContext(r)
	defer cancel()
	body, _, source, err := s.reads.Get(ctx, key, req)
	if err != nil {
		writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source.String())
	w.Write(body)
}

// streamLine is one NDJSON line of the streaming endpoint.
type streamLine struct {
	Type     string                `json:"type"` // "interval" | "result" | "error"
	Interval *frontendsim.Snapshot `json:"interval,omitempty"`
	Result   *frontendsim.Result   `json:"result,omitempty"`
	Error    string                `json:"error,omitempty"`
}

// handleStream runs one simulation and streams NDJSON: one line per
// thermal interval as it is simulated, then a final result line.
// Streamed runs bypass the response cache — the stream is the product.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), err)
		return
	}
	ctx, cancel := serve.RequestContext(r)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		writeRunError(w, err)
		return
	}
	defer s.adm.release()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	obs := frontendsim.ObserverFunc(func(snap frontendsim.Snapshot) {
		enc.Encode(streamLine{Type: "interval", Interval: &snap})
		if flusher != nil {
			flusher.Flush()
		}
	})
	res, err := s.eng.RunObserved(ctx, req, obs)
	if err != nil {
		enc.Encode(streamLine{Type: "error", Error: err.Error()})
		return
	}
	enc.Encode(streamLine{Type: "result", Result: res})
}

// handleBenchmarks lists the available workload profiles.
func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Benchmarks []string `json:"benchmarks"`
	}{Benchmarks: frontendsim.Benchmarks()})
}
