package scheduler

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// Config configures a Scheduler.
type Config struct {
	// Backends are the simd base URLs forming the ring (e.g.
	// "http://sim-1:8723").  At least one is required.
	Backends []string
	// Retries bounds how many additional ring nodes are tried after the
	// home node fails.  0 (the zero value) selects every remaining node;
	// a negative value disables failover entirely.
	Retries int
	// HTTPClient overrides the backend HTTP client (nil selects
	// http.DefaultClient).
	HTTPClient *http.Client
	// Cache is the scheduler-tier response store (Thanos
	// query-frontend results cache): it is consulted before the
	// single-flight group, so a hit starts no flight, and re-checked
	// (uncounted) inside it before any ring dispatch; it is filled
	// after every successful dispatch.  A fully cached suite is
	// answered without contacting a single backend.  nil disables the
	// tier.
	Cache resultstore.Store
	// Metrics, when set, re-exports the dispatch counters and the
	// scheduler-tier store counters on the registry (GET /metrics).
	Metrics *obs.Registry
	// RetryBackoff enables jittered exponential backoff between ring-walk
	// retry attempts: the nth retry of a shard waits ~RetryBackoff·2ⁿ⁻¹
	// (jittered ±50%) before hammering the next backend.  0 disables
	// (retries fire back-to-back, the pre-backoff behaviour).
	RetryBackoff time.Duration
	// ReportDispatch, when set, receives every dispatch attempt's verdict
	// about a backend: nil error for success, the failure otherwise.
	// Attempts that say nothing about the backend (caller cancellation,
	// 4xx request errors) are not reported.  Wire it to
	// membership.Registry.ReportDispatch, with the registry's OnChange
	// wired to OnMembershipChange: real traffic then quarantines a
	// failing backend between probe rounds and the ring routes around
	// it.  Without a registry, a dead backend is retried on every
	// dispatch homed on it.
	ReportDispatch func(node string, err error)
	// PartialResults switches RunSuite* to graceful degradation: shards
	// whose ring walk exhausts every backend become per-shard error
	// entries (X-Cache: PARTIAL-ERROR at the server tier) instead of
	// failing the whole suite.
	PartialResults bool

	// BreakerThreshold is ignored.
	//
	// Deprecated: membership's passive quarantine (ReportDispatch) is
	// the one health signal dispatch verdicts feed; there is no
	// per-backend circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is ignored.
	//
	// Deprecated: see BreakerThreshold.
	BreakerCooldown time.Duration
	// HintLimit is ignored.
	//
	// Deprecated: a reinstated member recomputes a key it lacks
	// deterministically; nothing replays or copies results.
	HintLimit int
}

// Stats are cumulative dispatch counters.
type Stats struct {
	// Dispatched counts simulations shipped to a backend (after suite
	// de-duplication and single-flight coalescing).
	Dispatched uint64 `json:"dispatched"`
	// Retried counts dispatch attempts that failed over to another ring
	// node after a backend failure.
	Retried uint64 `json:"retried"`
	// Coalesced counts dispatches served by joining an identical
	// in-flight dispatch instead of contacting a backend.
	Coalesced uint64 `json:"coalesced"`
	// CacheHits counts dispatches answered by the scheduler-tier
	// response store without contacting a backend — by the lookup
	// before the single-flight group, or by the re-check inside it.
	CacheHits uint64 `json:"cache_hits"`
	// RingSwaps counts atomic ring replacements (SetBackends).
	RingSwaps uint64 `json:"ring_swaps"`
	// Backoffs counts jittered waits slept between retry attempts.
	Backoffs uint64 `json:"backoffs"`
}

// Scheduler is the multi-node suite frontend: it expands a suite into
// per-benchmark requests, shards them across the backend ring by
// canonical RequestKey, retries failed dispatches on the next ring node,
// and aggregates results in deterministic suite order — byte-identical
// to a serial in-process Engine.RunSuite of the same suite.
//
// De-duplication holds at every tier: duplicate keys within one suite
// dispatch once (frontendsim suite sharding), identical concurrent
// dispatches across suites single-flight into one backend call, and the
// backend itself single-flights and caches on the same canonical key.
//
// A Scheduler is safe for concurrent use.
type Scheduler struct {
	eng    *frontendsim.Engine
	ring   atomic.Pointer[Ring]
	client *Client
	// retries keeps the Config semantics (0 = all remaining, <0 = none)
	// and is resolved against the current ring size on every dispatch —
	// the ring can grow and shrink at runtime.
	retries int
	// reads serves a canonical request from the scheduler-tier store
	// (nil disables it), checking each stored body with
	// frontendsim.DecodeResultView, or walks the ring once for every
	// concurrent identical caller (dispatchKey).
	reads *serve.ReadThrough[frontendsim.Request, *frontendsim.Result]

	// Resilience plumbing: the jittered retry backoff and the passive
	// membership feed.  sleep is injectable so backoff tests assert
	// spacing under a stubbed clock.
	retryBackoff   time.Duration
	rngMu          sync.Mutex
	rng            *rand.Rand
	sleep          func(ctx context.Context, d time.Duration) error
	backoffSeconds *obs.Histogram
	reportDispatch func(node string, err error)
	partial        bool

	dispatched atomic.Uint64
	retried    atomic.Uint64
	ringSwaps  atomic.Uint64
	backoffs   atomic.Uint64
}

// New builds a Scheduler over eng's request canonicalization
// (RequestKey and suite expansion).  Requests reach the backends as
// given, so one that leaves its simulation lengths unset runs at the
// backends' engine defaults, and eng must key it at the same lengths:
// cmd/simd backends run the paper defaults, so the scheduler in front
// of them builds eng without length options.
func New(eng *frontendsim.Engine, cfg Config) (*Scheduler, error) {
	ring, err := NewRing(cfg.Backends)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		eng:            eng,
		client:         NewClient(cfg.HTTPClient),
		retries:        cfg.Retries,
		retryBackoff:   cfg.RetryBackoff,
		rng:            newJitterRNG(),
		sleep:          sleepCtx,
		reportDispatch: cfg.ReportDispatch,
		partial:        cfg.PartialResults,
	}
	s.reads = serve.NewReadThrough(cfg.Cache, frontendsim.DecodeResultView, s.dispatchKey)
	s.ring.Store(ring)
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	return s, nil
}

// registerMetrics re-exports the scheduler counters on reg.
func (s *Scheduler) registerMetrics(reg *obs.Registry) {
	reg.Sampled("scheduler_dispatches_total", "Dispatch outcomes by kind.",
		obs.TypeCounter, []string{"kind"}, func(emit func([]string, float64)) {
			st := s.Stats()
			emit([]string{"dispatched"}, float64(st.Dispatched))
			emit([]string{"retried"}, float64(st.Retried))
			emit([]string{"coalesced"}, float64(st.Coalesced))
			emit([]string{"cache_hit"}, float64(st.CacheHits))
		})
	reg.Sampled("scheduler_ring_swaps_total", "Atomic ring replacements.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.ringSwaps.Load()))
		})
	reg.Sampled("scheduler_ring_size", "Backends in the routing ring.",
		obs.TypeGauge, nil, func(emit func([]string, float64)) {
			emit(nil, float64(len(s.Ring().Nodes())))
		})
	s.reads.RegisterStoreOps(reg, "scheduler_store_ops_total", "Scheduler-tier response store counters.")
	h := reg.Histogram("sched_retry_backoff_seconds",
		"Jittered backoff slept between ring-walk retry attempts.", nil)
	s.backoffSeconds = &h
}

// OnMembershipChange returns a callback for membership.Config.OnChange
// that atomically swaps the scheduler's ring to each new routable set.
// During a total outage that set is every quarantined member, so
// dispatches still try them all and the first one that answers serves,
// with no probe round needed.  An empty set (every member gone) is
// rejected by SetBackends and keeps the last ring.
func (s *Scheduler) OnMembershipChange() func(epoch uint64, routable []string) {
	return func(_ uint64, routable []string) {
		s.SetBackends(routable)
	}
}

// Ring returns the scheduler's current backend ring.  The ring is
// immutable; SetBackends replaces it wholesale.
func (s *Scheduler) Ring() *Ring { return s.ring.Load() }

// SetBackends atomically replaces the routing ring with one over nodes.
// In-flight dispatches keep the ring they started with (a request to a
// removed backend runs to completion); new dispatches shard over the new
// set.  An empty node list is rejected — the last ring stays in place so
// a total outage degrades to per-request failures instead of a nil ring.
func (s *Scheduler) SetBackends(nodes []string) error {
	ring, err := NewRing(nodes)
	if err != nil {
		return err
	}
	s.ring.Store(ring)
	s.ringSwaps.Add(1)
	return nil
}

// Stats returns a snapshot of the cumulative dispatch counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Dispatched: s.dispatched.Load(),
		Retried:    s.retried.Load(),
		Coalesced:  s.reads.Coalesced(),
		CacheHits:  s.reads.Hits(),
		RingSwaps:  s.ringSwaps.Load(),
		Backoffs:   s.backoffs.Load(),
	}
}

// CacheStats returns the scheduler-tier store's per-tier counters (nil
// when the tier is disabled).
func (s *Scheduler) CacheStats() []resultstore.TierStats { return s.reads.StoreStats() }

// Source reports how one dispatch was served; its String is the X-Cache
// spelling.
type Source = serve.Source

const (
	// SourceDispatched: the request was shipped to a backend.
	SourceDispatched = serve.Miss
	// SourceCached: the scheduler-tier store answered, before or inside
	// a flight; no backend was contacted on the caller's behalf.
	SourceCached = serve.Hit
	// SourceCoalesced: the caller joined an identical in-flight
	// dispatch started by another caller.
	SourceCoalesced = serve.Coalesced
)

// Served is a suite's breakdown of how its unique shards (canonical
// keys) were served.
type Served struct {
	// Cached shards were answered by the scheduler-tier store.
	Cached uint64 `json:"cached"`
	// Dispatched shards were shipped to a backend.
	Dispatched uint64 `json:"dispatched"`
	// Coalesced shards joined an identical in-flight dispatch.
	Coalesced uint64 `json:"coalesced"`
	// Failed shards exhausted the ring and were recorded as per-shard
	// errors (PartialResults mode only; without it a failed shard fails
	// the whole suite instead).
	Failed uint64 `json:"failed"`
}

// XCache is the frontend-tier X-Cache value of a suite response.  It
// reports the backend cost incurred on *this* request's behalf:
//
//	HIT        every unique shard came from the scheduler store
//	COALESCED  zero shards were dispatched for this request, but at
//	           least one joined another caller's in-flight dispatch
//	           (an all-coalesced suite is not a MISS — no backend work
//	           was started on its behalf)
//	PARTIAL    a mix: some shards served locally (store or join), some
//	           dispatched
//	MISS       every shard was dispatched to the ring
//
// PARTIAL-ERROR overrides them all: some shards failed and the response
// carries per-shard error entries (PartialResults mode) — a degraded
// answer must never masquerade as a clean one.
func (v Served) XCache() string {
	if v.Failed > 0 {
		return "PARTIAL-ERROR"
	}
	total := v.Cached + v.Dispatched + v.Coalesced
	switch {
	case total == 0:
		return "MISS"
	case v.Cached == total:
		return "HIT"
	case v.Dispatched == 0:
		return "COALESCED"
	case v.Cached+v.Coalesced > 0:
		return "PARTIAL"
	}
	return "MISS"
}

// RunSuite runs the suite across the backend ring.  Results arrive in
// suite order with the deterministic aggregate; the response is
// byte-identical (as JSON) to a serial in-process Engine.RunSuite with
// the same engine defaults.
func (s *Scheduler) RunSuite(ctx context.Context, suite frontendsim.SuiteRequest) (*frontendsim.SuiteResult, error) {
	res, _, err := s.RunSuiteServed(ctx, suite)
	return res, err
}

// RunSuiteServed is RunSuite plus the per-suite breakdown of how each
// unique shard was served — the basis of the frontend tier's X-Cache
// accounting.
func (s *Scheduler) RunSuiteServed(ctx context.Context, suite frontendsim.SuiteRequest) (*frontendsim.SuiteResult, Served, error) {
	return s.RunSuiteStream(ctx, suite, nil)
}

// RunSuiteStream is the streamed fan-in: the suite's unique shards run
// through the whole cache → singleflight → ring-dispatch stack
// exactly as in RunSuiteServed, but every shard is emitted to sink the
// moment it completes — a partially cached sweep streams its cached
// shards in the first milliseconds while only the missing shards wait
// on backends.  Each shard carries its suite positions and source
// (HIT/COALESCED/MISS); sink calls are serialized.  The returned
// SuiteResult is byte-identical (as JSON) to RunSuite of the same
// suite.  A nil sink degrades to RunSuiteServed.
// With Config.PartialResults, a shard whose ring walk exhausts every
// backend is emitted as a ShardResult with Err set (the server renders
// it as a {"type":"shard-error"} line), counted in Served.Failed, and
// the suite completes with per-shard error entries — one dead shard no
// longer fails an otherwise-servable sweep.
func (s *Scheduler) RunSuiteStream(ctx context.Context, suite frontendsim.SuiteRequest, sink frontendsim.StreamSink) (*frontendsim.SuiteResult, Served, error) {
	return s.runSuite(ctx, suite, sink, true)
}

// runSuite is RunSuiteStream over the read-through, with the key each
// shard's dispatch is handed by the suite.  Shards carry views of their bytes
// (frontendsim.DecodeResultView), stored or dispatched alike; with
// full set each is decoded in full once, in its shard's dispatch,
// so the positions of one shard share one *Result.  The HTTP handlers
// keep the views and splice their bytes into the response.
func (s *Scheduler) runSuite(ctx context.Context, suite frontendsim.SuiteRequest, sink frontendsim.StreamSink, full bool) (*frontendsim.SuiteResult, Served, error) {
	var cached, dispatched, coalesced atomic.Uint64
	dispatch := func(ctx context.Context, key string, req frontendsim.Request) (*frontendsim.Result, string, error) {
		_, r, src, err := s.reads.Get(ctx, key, req)
		if err != nil {
			return nil, "", err
		}
		if full {
			if r, err = r.Full(); err != nil {
				return nil, "", err
			}
		}
		switch src {
		case SourceCached:
			cached.Add(1)
		case SourceCoalesced:
			coalesced.Add(1)
		default:
			dispatched.Add(1)
		}
		return r, src.String(), nil
	}
	var res *frontendsim.SuiteResult
	var err error
	if s.partial {
		res, err = s.eng.RunSuitePartial(ctx, suite, dispatch, sink)
	} else {
		res, err = s.eng.RunSuiteStream(ctx, suite, dispatch, sink)
	}
	served := Served{
		Cached:     cached.Load(),
		Dispatched: dispatched.Load(),
		Coalesced:  coalesced.Load(),
	}
	if res != nil {
		// Count only the failures that made it into the degraded result:
		// in strict mode a failure aborts the run (the error is the
		// answer), and a cancelled partial run must not report
		// PARTIAL-ERROR accounting for a response that never formed.
		served.Failed = uint64(len(res.Errors))
	}
	return res, served, err
}

// Dispatch ships one request to its home backend, walking the ring on
// failure.  Identical concurrent dispatches (same canonical key, e.g.
// from two overlapping suites) coalesce into one backend call, and the
// scheduler-tier store (when configured) answers without any backend
// call at all.
func (s *Scheduler) Dispatch(ctx context.Context, req frontendsim.Request) (*frontendsim.Result, error) {
	res, _, err := s.DispatchSource(ctx, req)
	return res, err
}

// DispatchSource is Dispatch plus how the request was served.
func (s *Scheduler) DispatchSource(ctx context.Context, req frontendsim.Request) (*frontendsim.Result, Source, error) {
	_, res, src, err := s.serve(ctx, req)
	if err != nil {
		return nil, src, err
	}
	res, err = res.Full()
	return res, src, err
}

// serve is DispatchSource returning the body bytes and the aggregation
// view: the read-through under req's canonical key.  body is simd's
// response body verbatim — the one representation the scheduler caches
// and serves, so a result's bytes stay those the backend computed — and
// res is its view (frontendsim.DecodeResultView), whether the body came
// from a backend or the store; Full decodes the rest.
func (s *Scheduler) serve(ctx context.Context, req frontendsim.Request) ([]byte, *frontendsim.Result, Source, error) {
	key, err := s.eng.RequestKey(req)
	if err != nil {
		return nil, nil, SourceDispatched, err
	}
	return s.reads.Get(ctx, key, req)
}

// attempts resolves the Config.Retries semantics against the current
// ring size: 0 selects every node, negative disables failover.
func (s *Scheduler) attempts(ringSize int) int {
	switch {
	case s.retries < 0:
		return 1
	case s.retries == 0 || s.retries+1 > ringSize:
		return ringSize
	}
	return s.retries + 1
}

// dispatchKey walks the key's ring sequence on the caller's goroutine:
// the home node first, then up to retries failover nodes, one attempt at
// a time, each failover after the jittered retry backoff.  The ring
// holds only members the registry has not quarantined, so a backend
// that keeps failing dispatches leaves the walk once ReportDispatch
// quarantines it.  Request errors (4xx — every backend would refuse)
// and the caller's own cancellation abort the walk immediately.
func (s *Scheduler) dispatchKey(ctx context.Context, key string, req frontendsim.Request) ([]byte, *frontendsim.Result, error) {
	s.dispatched.Add(1)
	nodes := s.Ring().Sequence(key)
	nodes = nodes[:s.attempts(len(nodes))]

	var lastErr error
	for i, node := range nodes {
		if i > 0 {
			s.retried.Add(1)
			if err := s.backoff(ctx, i); err != nil {
				return nil, nil, err
			}
		}
		body, res, err := s.client.Simulate(ctx, node, req)
		switch classifyDispatch(ctx, err) {
		case outcomeSuccess:
			s.report(node, nil)
			return body, res, nil
		case outcomeUnknown:
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, nil, ctxErr
			}
			return nil, nil, err
		}
		s.report(node, err)
		lastErr = err
	}
	return nil, nil, &ExhaustedError{Benchmark: req.Benchmark, Attempts: len(nodes), Last: lastErr}
}

// ExhaustedError reports that every permitted ring node failed to serve
// a request.
type ExhaustedError struct {
	Benchmark string
	Attempts  int
	Last      error // the last backend's failure
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("scheduler: %s failed on %d backend(s): %v", e.Benchmark, e.Attempts, e.Last)
}

// Unwrap exposes the last backend failure.
func (e *ExhaustedError) Unwrap() error { return e.Last }
