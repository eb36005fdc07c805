package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/singleflight"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// DefaultMaxBodyBytes caps every request body (http.MaxBytesReader):
// simulation and suite requests are a few KB even with a full config
// override, and a repair write carries one stored result, so 1 MiB is
// generous headroom while keeping a hostile multi-GB POST from being
// read to the end by the JSON decoder.  An oversized body gets 413.
const DefaultMaxBodyBytes = 1 << 20

// Server is the HTTP API of the simulation service.
//
//	POST /v1/simulations        JSON frontendsim.Request -> JSON frontendsim.Result
//	POST /v1/simulations/stream JSON request -> NDJSON: one interval line
//	                            per thermal interval, then a final result line
//	POST /v1/suites             JSON frontendsim.SuiteRequest -> JSON SuiteResult
//	POST /v1/suites/stream      JSON suite request -> NDJSON: one shard line
//	                            per completed shard, then the terminal
//	                            aggregate line
//	GET  /v1/benchmarks         the available benchmark profiles
//	GET  /v1/cache/stats        response-cache counters
//	GET  /v1/store/keys         live key enumeration (501 without the
//	                            store's Scanner capability)
//	GET  /v1/store/digest       per-bucket key-set digests (anti-entropy)
//	GET  /v1/store/entries/{key}  one stored response body, verbatim
//	PUT  /v1/store/entries/{key}  repair write (hint replay, reseeding)
//	GET  /metrics               Prometheus text exposition (with WithMetrics)
//	GET  /healthz               readiness: 200 while serving, 503 when
//	                            draining or the response store is down
type Server struct {
	eng     *frontendsim.Engine
	store   resultstore.Store
	mux     *http.ServeMux
	metrics *obs.Registry
	// ready gates /healthz: SetReady(false) flips the health check to
	// 503 so the scheduler's probes quarantine this backend (draining)
	// while in-flight and even new requests still complete.
	ready atomic.Bool
	// adm bounds concurrent simulations at the Engine's worker count and
	// (with WithAdmission) the queue of requests waiting for a slot:
	// excess load is shed with 503 + Retry-After instead of stacking
	// handler goroutines behind clients that will give up anyway.
	adm *admission
	// partial switches the suite endpoints to graceful degradation:
	// shard failures become per-shard error entries (X-Cache:
	// PARTIAL-ERROR, NDJSON shard-error lines) instead of failing the
	// whole suite.
	partial bool
	// flight single-flights concurrent identical requests on the
	// canonical key: the simulation runs once, every concurrent caller
	// shares the marshalled response.  Suite entries route through the
	// same group, so a suite entry and a plain simulation of the same
	// request also coalesce.
	flight singleflight.Group[[]byte]
	// coalesced counts requests served by joining another caller's
	// in-flight simulation (reported by /v1/cache/stats).
	coalesced atomic.Uint64

	// Self-healing counters: anti-entropy digest exchanges (periodic and
	// join-time), the entries they pulled and their failures, and repair
	// writes accepted through PUT /v1/store/entries.
	aeRounds     atomic.Uint64
	aePulled     atomic.Uint64
	aeErrs       atomic.Uint64
	repairWrites atomic.Uint64
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

// WithPartialResults switches the suite endpoints to graceful
// degradation: when some shards cannot be served, /v1/suites answers
// 200 with X-Cache: PARTIAL-ERROR, per-shard `errors` entries and an
// aggregate over the shards that completed, and /v1/suites/stream
// emits {"type":"shard-error"} lines — instead of failing the whole
// suite for one dead shard.  A suite in which *every* shard fails
// still errors.
func WithPartialResults() Option {
	return func(s *Server) { s.partial = true }
}

// NewServer builds a Server over eng with an in-memory LRU response
// store of cacheSize entries (cacheSize < 1 disables caching).  At most
// eng.Workers() simulations run concurrently.
func NewServer(eng *frontendsim.Engine, cacheSize int, opts ...Option) *Server {
	return NewServerWithStore(eng, resultstore.NewMemory(cacheSize), opts...)
}

// NewServerWithStore builds a Server over eng serving its responses
// through store (a disk-backed or tiered store makes cached results
// survive restarts; a store shared across replicas lets one backend
// serve a peer's keys).  The caller owns the store's lifecycle and
// closes it after shutting the server down.
func NewServerWithStore(eng *frontendsim.Engine, store resultstore.Store, opts ...Option) *Server {
	s := &Server{
		eng:   eng,
		store: store,
		mux:   http.NewServeMux(),
		adm:   newAdmission(eng.Workers(), 0, 0),
	}
	s.ready.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	s.handle("POST /v1/simulations", s.handleSimulate)
	s.handle("POST /v1/simulations/stream", s.handleStream)
	s.handle("POST /v1/suites", s.handleSuite)
	s.handle("POST /v1/suites/stream", s.handleSuiteStream)
	s.handle("GET /v1/benchmarks", s.handleBenchmarks)
	s.handle("GET /v1/cache/stats", s.handleCacheStats)
	s.handle("GET /v1/store/keys", s.handleStoreKeys)
	s.handle("GET /v1/store/digest", s.handleStoreDigest)
	s.handle("GET /v1/store/entries/{key}", s.handleStoreGetEntry)
	s.handle("PUT /v1/store/entries/{key}", s.handleStorePutEntry)
	s.handle("GET /healthz", s.handleHealthz)
	if s.metrics != nil {
		s.mux.Handle("GET /metrics", s.metrics.Handler())
		s.registerMetrics(s.metrics)
	}
	return s
}

// handle mounts pattern, instrumented when a metrics registry is
// configured (the handler label is the route pattern).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	if s.metrics != nil {
		s.mux.Handle(pattern, s.metrics.InstrumentHandlerFunc(pattern, h))
		return
	}
	s.mux.HandleFunc(pattern, h)
}

// registerMetrics re-exports the server's counters on reg.
func (s *Server) registerMetrics(reg *obs.Registry) {
	// Store-level families (remote ops, batch sizes, compactions) ride
	// along whenever the configured backend has them.
	resultstore.RegisterMetrics(reg, s.store)
	reg.Sampled("simd_store_ops_total", "Response store counters, by tier.",
		obs.TypeCounter, []string{"tier", "op"}, func(emit func([]string, float64)) {
			for _, t := range s.store.Stats() {
				emit([]string{t.Tier, "hit"}, float64(t.Hits))
				emit([]string{t.Tier, "miss"}, float64(t.Misses))
				emit([]string{t.Tier, "set"}, float64(t.Sets))
				emit([]string{t.Tier, "error"}, float64(t.Errors))
			}
		})
	reg.Sampled("simd_store_entries", "Response store entries, by tier.",
		obs.TypeGauge, []string{"tier"}, func(emit func([]string, float64)) {
			for _, t := range s.store.Stats() {
				emit([]string{t.Tier}, float64(t.Entries))
			}
		})
	reg.Sampled("simd_coalesced_total", "Requests served by joining an in-flight identical simulation.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.coalesced.Load()))
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
			if s.ready.Load() {
				emit(nil, 1)
			} else {
				emit(nil, 0)
			}
		})
	reg.Sampled("simd_antientropy_rounds_total", "Completed anti-entropy digest exchanges.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.aeRounds.Load()))
		})
	reg.Sampled("simd_antientropy_pulled_total", "Entries pulled from peers by anti-entropy repair, join-time convergence included.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.aePulled.Load()))
		})
	reg.Sampled("simd_antientropy_errors_total", "Anti-entropy rounds or pulls that failed.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.aeErrs.Load()))
		})
	reg.Sampled("simd_store_repair_writes_total", "Entries accepted through PUT /v1/store/entries (hint replay, reseeding).",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.repairWrites.Load()))
		})
}

// SetReady flips the /healthz verdict.  cmd/simd calls SetReady(false)
// when shutdown begins so the scheduler's membership probes stop
// routing new work here while the listener drains.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// healthProbeKey is the store key the readiness check peeks; it never
// exists, the probe only cares whether the store answers at all.
const healthProbeKey = "healthz-store-probe"

// handleHealthz is the readiness check the membership registry probes:
// 503 while draining (SetReady(false)) or when the response store
// errors (closed or a failed disk tier) — a backend that cannot serve
// its store should be quarantined, not handed traffic.  The store peek
// stays out of the cache hit/miss counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("simd: draining"))
		return
	}
	if _, _, err := resultstore.Peek(r.Context(), s.store, healthProbeKey); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("simd: response store unavailable: %w", err))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: err.Error()})
}

// statusFor maps run errors to HTTP statuses: client cancellations map
// to 499 (nginx convention); everything else is an internal failure and
// must be a 5xx.  Every handler validates the request *before* the run
// starts (decode and validation failures are 400 at the handler), so an
// error reaching this point is the server's fault — a corrupt store
// entry, a marshalling failure, a future store fault.  Reporting those
// as 400 would make the scheduler's retry classifier treat a backend
// fault as permanent and abort its ring walk instead of failing over.
func statusFor(err error) int {
	var se *ShedError
	if errors.As(err, &se) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499
	}
	return http.StatusInternalServerError
}

// writeRunError is writeError for errors out of a run: it adds the
// Retry-After header when admission control shed the request, so the
// 503 tells clients *when* to come back, not just to go away.
func writeRunError(w http.ResponseWriter, err error) {
	var se *ShedError
	if errors.As(err, &se) {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfterSeconds()))
	}
	writeError(w, statusFor(err), err)
}

// requestContext derives the handler context: the request's own,
// bounded by the caller's X-Deadline-Budget when the hop carries one.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return frontendsim.ApplyDeadlineBudget(r.Context(), r.Header.Get(frontendsim.DeadlineBudgetHeader))
}

// decodeStatus maps a request-decoding failure to its HTTP status: an
// over-limit body (http.MaxBytesReader) is 413, anything else is the
// caller's malformed JSON.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// acquire claims a simulation slot through the admission controller, or
// fails when the queue bounds are exceeded (*ShedError) or ctx ends.
func (s *Server) acquire(ctx context.Context) error { return s.adm.acquire(ctx) }

func (s *Server) release() { s.adm.release() }

// decodeRequest decodes a simulation request with the body cap applied
// and validates it, so every error after a successful decode is the
// server's own (see statusFor).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (frontendsim.Request, error) {
	var req frontendsim.Request
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("simd: decode request: %w", err)
	}
	return req, req.Validate()
}

// decodeSuite is decodeRequest for suite requests.
func (s *Server) decodeSuite(w http.ResponseWriter, r *http.Request) (frontendsim.SuiteRequest, error) {
	var suite frontendsim.SuiteRequest
	r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&suite); err != nil {
		return suite, fmt.Errorf("simd: decode suite request: %w", err)
	}
	return suite, suite.Validate()
}

// simulate produces the marshalled response for one canonical request:
// from the response store when present, by joining an identical
// in-flight simulation when one exists, and by running the simulation
// otherwise.  source reports which path served the body: "HIT",
// "COALESCED" or "MISS".  Store failures are served around: a Get error
// falls through to the engine, a Set error only costs the next request
// a recompute (both are visible in the store's error counters).
func (s *Server) simulate(ctx context.Context, key string, req frontendsim.Request) (body []byte, source string, err error) {
	if body, ok, _ := s.store.Get(ctx, key); ok {
		return body, "HIT", nil
	}
	body, err, shared := s.flight.Do(ctx, key, func(runCtx context.Context) ([]byte, error) {
		// Re-check the store: a caller that raced a just-completed
		// identical run starts a fresh execution (the flight entry is
		// gone) but its response is already stored.  The Peek keeps the
		// re-check invisible in the stats (the top-level Get above
		// already counted this request as a miss, and it reports MISS).
		if body, ok, _ := resultstore.Peek(runCtx, s.store, key); ok {
			return body, nil
		}
		if err := s.acquire(runCtx); err != nil {
			return nil, err
		}
		defer s.release()
		res, err := s.eng.Run(runCtx, req)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		b = append(b, '\n')
		s.store.Set(runCtx, key, b)
		return b, nil
	})
	if err != nil {
		return nil, "", err
	}
	if shared {
		s.coalesced.Add(1)
		return body, "COALESCED", nil
	}
	return body, "MISS", nil
}

// handleSimulate runs one simulation, serving repeats of the same
// canonical request from the LRU cache and single-flighting concurrent
// identical requests onto one engine run.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	key, err := s.eng.RequestKey(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	body, source, err := s.simulate(ctx, key, req)
	if err != nil {
		writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Write(body)
}

// dispatchSource adapts simulate to the frontendsim.SourcedDispatcher
// signature for suite runs: each suite shard flows, under the key the
// suite derived for it, through the same cache and single-flight group
// as a plain simulation, so suites and concurrent single requests
// de-duplicate against each other too.  Only the aggregation view of
// the body is decoded: the suite handlers write the body itself back
// out.
func (s *Server) dispatchSource(ctx context.Context, key string, req frontendsim.Request) (*frontendsim.Result, string, error) {
	body, source, err := s.simulate(ctx, key, req)
	if err != nil {
		return nil, "", err
	}
	res, err := frontendsim.DecodeResultView(body)
	if err != nil {
		return nil, "", fmt.Errorf("simd: decode cached result: %w", err)
	}
	return res, source, nil
}

// runSuite runs suite through dispatchSource, emitting every completed
// shard to sink (nil for the blocking endpoint, which RunSuiteStream
// then runs exactly like RunSuiteVia).  With WithPartialResults, shard
// failures degrade to per-shard error entries instead of failing the
// suite.
func (s *Server) runSuite(ctx context.Context, suite frontendsim.SuiteRequest, sink frontendsim.StreamSink) (*frontendsim.SuiteResult, error) {
	if s.partial {
		return s.eng.RunSuitePartial(ctx, suite, s.dispatchSource, sink)
	}
	return s.eng.RunSuiteStream(ctx, suite, s.dispatchSource, sink)
}

// handleSuite runs a whole benchmark suite in-process (single-node mode
// of the /v1/suites API that cmd/simsched serves across a backend ring)
// and responds with the deterministic frontendsim.SuiteResult.  With
// WithPartialResults, shard failures degrade to `errors` entries and
// X-Cache: PARTIAL-ERROR instead of failing the suite.
func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	suite, err := s.decodeSuite(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	res, err := s.runSuite(ctx, suite, nil)
	if err != nil {
		writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if len(res.Errors) > 0 {
		w.Header().Set("X-Cache", "PARTIAL-ERROR")
	}
	frontendsim.WriteLine(w, res.AppendJSON)
}

// handleSuiteStream is handleSuite with NDJSON shard streaming: one
// {"type":"shard"} line per completed shard the moment it lands (cached
// shards effectively instantly), flushed per line, then a terminal
// {"type":"aggregate"} line whose suite field is byte-identical (as
// JSON) to the blocking /v1/suites response of the same request.  A run
// failure after streaming began becomes a terminal {"type":"error"}
// line — the HTTP status is already committed.
func (s *Server) handleSuiteStream(w http.ResponseWriter, r *http.Request) {
	suite, err := s.decodeSuite(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
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
	res, err := s.runSuite(ctx, suite, func(sh frontendsim.ShardResult) { emit(sh.Line()) })
	if err != nil {
		emit(frontendsim.SuiteStreamLine{Type: "error", Error: err.Error()})
		return
	}
	emit(frontendsim.SuiteStreamLine{Type: "aggregate", Suite: res})
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
		writeError(w, decodeStatus(err), err)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		writeRunError(w, err)
		return
	}
	defer s.release()
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

// handleCacheStats reports the response store's counters: the folded
// store-level totals (Totals' semantics) plus each tier's own counters.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	tiers := s.store.Stats()
	entries, hits, misses := resultstore.Totals(tiers)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Entries   int                     `json:"entries"`
		Hits      uint64                  `json:"hits"`
		Misses    uint64                  `json:"misses"`
		Coalesced uint64                  `json:"coalesced"`
		Tiers     []resultstore.TierStats `json:"tiers"`
	}{Entries: entries, Hits: hits, Misses: misses, Coalesced: s.coalesced.Load(), Tiers: tiers})
}

// Describe returns a one-line routing summary (used by cmd/simd startup
// logging).
func Describe() string {
	return strings.Join([]string{
		"POST /v1/simulations",
		"POST /v1/simulations/stream",
		"POST /v1/suites",
		"POST /v1/suites/stream",
		"GET /v1/benchmarks",
		"GET /v1/cache/stats",
		"GET /v1/store/keys",
		"GET /v1/store/digest",
		"GET|PUT /v1/store/entries/{key}",
		"GET /metrics",
		"GET /healthz",
	}, ", ")
}
