package scheduler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/singleflight"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// Config configures a Scheduler.
type Config struct {
	// Backends are the simd base URLs forming the ring (e.g.
	// "http://sim-1:8723").  At least one is required.
	Backends []string
	// Replicas is the virtual-point count per backend (< 1 selects
	// DefaultReplicas).
	Replicas int
	// Retries bounds how many additional ring nodes are tried after the
	// home node fails.  0 (the zero value) selects every remaining node;
	// a negative value disables failover entirely.
	Retries int
	// HTTPClient overrides the backend HTTP client (nil selects
	// http.DefaultClient).
	HTTPClient *http.Client
	// Cache is the scheduler-tier response store (Thanos
	// query-frontend results cache): it is consulted — inside the
	// single-flight group, so identical concurrent requests do one
	// lookup — before any ring dispatch, and filled after every
	// successful dispatch.  A fully cached suite is answered without
	// contacting a single backend.  nil disables the tier.
	Cache resultstore.Store
	// Metrics, when set, re-exports the dispatch counters and the
	// scheduler-tier store counters on the registry (GET /metrics).
	Metrics *obs.Registry
	// RetryBackoff enables jittered exponential backoff between ring-walk
	// retry attempts: the nth retry of a shard waits ~RetryBackoff·2ⁿ⁻¹
	// (jittered ±50%) before hammering the next backend.  0 disables
	// (retries fire back-to-back, the pre-backoff behaviour).
	RetryBackoff time.Duration
	// BreakerThreshold enables the per-backend passive circuit breaker:
	// that many consecutive dispatch failures open a backend's circuit
	// and the ring walk diverts around it until a cooldown probe
	// succeeds.  0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit diverts traffic before
	// admitting a half-open probe (0 selects 5s; only meaningful with
	// BreakerThreshold > 0).
	BreakerCooldown time.Duration
	// ReportDispatch, when set, receives every dispatch attempt's verdict
	// about a backend: nil error for success, the failure otherwise.
	// Attempts that say nothing about the backend (caller cancellation,
	// 4xx request errors) are not reported.  Wire it to
	// membership.Registry.ReportDispatch so real traffic quarantines a
	// flapping backend between probe rounds.
	ReportDispatch func(node string, err error)
	// PartialResults switches RunSuite* to graceful degradation: shards
	// whose ring walk exhausts every backend become per-shard error
	// entries (X-Cache: PARTIAL-ERROR at the server tier) instead of
	// failing the whole suite.
	PartialResults bool
	// HintLimit enables hinted handoff: up to this many write-throughs
	// per quarantined member are buffered and replayed into its store
	// (PUT /v1/store/entries/{key}) on reinstatement, so the member
	// serves the keys computed during its absence without recompute.
	// Requires OnMembershipTransition to be wired to
	// membership.Config.OnTransition.  0 disables.
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
	// response store without contacting a backend — directly, or by
	// joining an in-flight store lookup another caller started.
	CacheHits uint64 `json:"cache_hits"`
	// RingSwaps counts atomic ring replacements (SetBackends).
	RingSwaps uint64 `json:"ring_swaps"`
	// BreakerSkips counts dispatch attempts diverted around an open
	// circuit (the breaker doing its job: no request burned on a backend
	// that just failed repeatedly).
	BreakerSkips uint64 `json:"breaker_skips"`
	// Backoffs counts jittered waits slept between retry attempts.
	Backoffs uint64 `json:"backoffs"`
	// HintsQueued counts write-throughs buffered for quarantined
	// members (hinted handoff).
	HintsQueued uint64 `json:"hints_queued"`
	// HintsReplayed counts buffered writes delivered into a reinstated
	// member's store.
	HintsReplayed uint64 `json:"hints_replayed"`
	// HintsDropped counts buffered writes lost to the per-member bound,
	// replay failures, or the member's eviction/departure.
	HintsDropped uint64 `json:"hints_dropped"`
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
	eng      *frontendsim.Engine
	ring     atomic.Pointer[Ring]
	client   *Client
	replicas int
	// retries keeps the Config semantics (0 = all remaining, <0 = none)
	// and is resolved against the current ring size on every dispatch —
	// the ring can grow and shrink at runtime.
	retries int
	cache   resultstore.Store // nil disables the scheduler-tier store
	flight  singleflight.Group[outcome]

	// Resilience plumbing: the passive per-backend breaker (nil when
	// disabled), the jittered retry backoff, and the passive membership
	// feed.  sleep is injectable so backoff tests assert spacing under a
	// stubbed clock.
	brk            *breaker
	retryBackoff   time.Duration
	rngMu          sync.Mutex
	rng            *rand.Rand
	sleep          func(ctx context.Context, d time.Duration) error
	backoffSeconds *obs.Histogram
	reportDispatch func(node string, err error)
	partial        bool
	// hints is the hinted-handoff queue (nil when disabled).
	hints *hintQueue

	dispatched   atomic.Uint64
	retried      atomic.Uint64
	coalesced    atomic.Uint64
	cacheHits    atomic.Uint64
	ringSwaps    atomic.Uint64
	breakerSkips atomic.Uint64
	backoffs     atomic.Uint64
}

// outcome is one single-flighted dispatch's result plus whether the
// scheduler-tier store served it.  body is simd's response body
// verbatim — the one representation the scheduler caches, hints and
// serves, so a result's bytes stay those the backend computed — and res
// is its decoding for suite aggregation: in full for a backend body,
// the aggregation view (frontendsim.DecodeResultView) for a stored one.
type outcome struct {
	body   []byte
	res    *frontendsim.Result
	cached bool
}

// New builds a Scheduler over eng's request canonicalization (RequestKey
// and suite expansion use eng's defaults, so they must match the
// backends' engine flags for cross-tier cache keys to align — sharding
// and aggregation are correct either way).
func New(eng *frontendsim.Engine, cfg Config) (*Scheduler, error) {
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		eng:            eng,
		client:         NewClient(cfg.HTTPClient),
		replicas:       cfg.Replicas,
		retries:        cfg.Retries,
		cache:          cfg.Cache,
		retryBackoff:   cfg.RetryBackoff,
		rng:            newJitterRNG(),
		sleep:          sleepCtx,
		reportDispatch: cfg.ReportDispatch,
		partial:        cfg.PartialResults,
	}
	if cfg.BreakerThreshold > 0 {
		s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if cfg.HintLimit > 0 {
		s.hints = newHintQueue(cfg.HintLimit, cfg.Replicas, cfg.Backends, cfg.HTTPClient)
	}
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
	reg.Sampled("scheduler_store_ops_total", "Scheduler-tier response store counters.",
		obs.TypeCounter, []string{"tier", "op"}, func(emit func([]string, float64)) {
			for _, t := range s.CacheStats() {
				emit([]string{t.Tier, "hit"}, float64(t.Hits))
				emit([]string{t.Tier, "miss"}, float64(t.Misses))
				emit([]string{t.Tier, "set"}, float64(t.Sets))
				emit([]string{t.Tier, "error"}, float64(t.Errors))
			}
		})
	h := reg.Histogram("sched_retry_backoff_seconds",
		"Jittered backoff slept between ring-walk retry attempts.", nil)
	s.backoffSeconds = &h
	reg.Sampled("sched_breaker_transitions_total", "Circuit-breaker state transitions, by destination state.",
		obs.TypeCounter, []string{"to"}, func(emit func([]string, float64)) {
			if s.brk == nil {
				return
			}
			emit([]string{"open"}, float64(s.brk.opened.Load()))
			emit([]string{"half_open"}, float64(s.brk.halfOpen.Load()))
			emit([]string{"closed"}, float64(s.brk.closed.Load()))
		})
	reg.Sampled("sched_breaker_skips_total", "Dispatch attempts diverted around an open circuit.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.breakerSkips.Load()))
		})
	reg.Sampled("sched_hints_queued_total", "Write-throughs buffered for quarantined members (hinted handoff).",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.Stats().HintsQueued))
		})
	reg.Sampled("sched_hints_replayed_total", "Buffered writes delivered into reinstated members' stores.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.Stats().HintsReplayed))
		})
	reg.Sampled("sched_hints_dropped_total", "Buffered writes lost to the per-member bound, replay failures, or eviction.",
		obs.TypeCounter, nil, func(emit func([]string, float64)) {
			emit(nil, float64(s.Stats().HintsDropped))
		})
}

// OnMembershipChange returns a callback for membership.Config.OnChange
// that atomically swaps the scheduler's ring to each new active set.  A
// total outage (empty active set) keeps the last ring in place: routing
// to recently-dead backends degrades to per-request failures, which
// beats having no ring at all when the fleet comes back.
func (s *Scheduler) OnMembershipChange() func(epoch uint64, active []string) {
	return func(_ uint64, active []string) {
		if len(active) == 0 {
			return
		}
		s.SetBackends(active)
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
	ring, err := NewRing(nodes, s.replicas)
	if err != nil {
		return err
	}
	s.ring.Store(ring)
	s.ringSwaps.Add(1)
	return nil
}

// Stats returns a snapshot of the cumulative dispatch counters.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Dispatched:   s.dispatched.Load(),
		Retried:      s.retried.Load(),
		Coalesced:    s.coalesced.Load(),
		CacheHits:    s.cacheHits.Load(),
		RingSwaps:    s.ringSwaps.Load(),
		BreakerSkips: s.breakerSkips.Load(),
		Backoffs:     s.backoffs.Load(),
	}
	if s.hints != nil {
		st.HintsQueued = s.hints.queued.Load()
		st.HintsReplayed = s.hints.replayed.Load()
		st.HintsDropped = s.hints.dropped.Load()
	}
	return st
}

// CacheStats returns the scheduler-tier store's per-tier counters (nil
// when the tier is disabled).
func (s *Scheduler) CacheStats() []resultstore.TierStats {
	if s.cache == nil {
		return nil
	}
	return s.cache.Stats()
}

// Source reports how one dispatch was served.
type Source int

const (
	// SourceDispatched: the request was shipped to a backend.
	SourceDispatched Source = iota
	// SourceCached: the scheduler-tier store answered, no backend was
	// contacted.
	SourceCached
	// SourceCoalesced: the caller joined an identical in-flight
	// dispatch started by another caller.
	SourceCoalesced
)

// String returns the X-Cache spelling of the source.
func (s Source) String() string {
	switch s {
	case SourceCached:
		return "HIT"
	case SourceCoalesced:
		return "COALESCED"
	}
	return "MISS"
}

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

// runSuite is RunSuiteStream over serveKey, with the key each shard's
// dispatch is handed by the suite.  Shards the scheduler store
// answered carry views of the stored bytes (frontendsim.DecodeResultView);
// with full set each is decoded in full once, in its shard's dispatch,
// so the positions of one shard share one *Result.  The HTTP handlers
// keep the views and splice their bytes into the response.
func (s *Scheduler) runSuite(ctx context.Context, suite frontendsim.SuiteRequest, sink frontendsim.StreamSink, full bool) (*frontendsim.SuiteResult, Served, error) {
	var cached, dispatched, coalesced atomic.Uint64
	dispatch := func(ctx context.Context, key string, req frontendsim.Request) (*frontendsim.Result, string, error) {
		out, src, err := s.serveKey(ctx, key, req)
		if err != nil {
			return nil, "", err
		}
		r := out.res
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
	out, src, err := s.serve(ctx, req)
	if err != nil {
		return nil, src, err
	}
	res, err := out.res.Full()
	return res, src, err
}

// serve is DispatchSource returning the whole outcome, body bytes
// included: serveKey under req's canonical key.
func (s *Scheduler) serve(ctx context.Context, req frontendsim.Request) (outcome, Source, error) {
	key, err := s.eng.RequestKey(req)
	if err != nil {
		return outcome{}, SourceDispatched, err
	}
	return s.serveKey(ctx, key, req)
}

// serveKey serves req, whose canonical key is key.  The single-flight
// group stays in front of the store: concurrent identical requests
// resolve to one store lookup and (on a miss) one backend dispatch,
// whose body is written back to the store.
func (s *Scheduler) serveKey(ctx context.Context, key string, req frontendsim.Request) (outcome, Source, error) {
	out, err, shared := s.flight.Do(ctx, key, func(runCtx context.Context) (outcome, error) {
		if out, ok := s.cacheGet(runCtx, key); ok {
			return out, nil
		}
		out, err := s.dispatchKey(runCtx, key, req)
		if err != nil {
			return outcome{}, err
		}
		s.cacheSet(runCtx, key, out.body)
		s.hintResult(key, out.body)
		return out, nil
	})
	if err != nil {
		// A joined execution that failed served nobody: the caller was
		// not spared a backend dispatch, it inherited a failure.  The
		// source still reports the join, but failed shares stay out of
		// the Coalesced counter — it counts work actually saved.
		src := SourceDispatched
		if shared {
			src = SourceCoalesced
		}
		return outcome{}, src, err
	}
	// A caller that joined an execution the store answered was still
	// served by the store — no backend was contacted on its behalf — so
	// it counts as a cache hit, not a coalesce; only joins of real
	// dispatches count as coalesced.  This keeps a fully cache-served
	// suite reporting X-Cache: HIT even when two identical suites race.
	switch {
	case out.cached:
		s.cacheHits.Add(1)
		return out, SourceCached, nil
	case shared:
		s.coalesced.Add(1)
		return out, SourceCoalesced, nil
	}
	return out, SourceDispatched, nil
}

// cacheGet reads one result from the scheduler-tier store and decodes
// only its aggregation view: the entry was decoded in full before it
// was written.  Any failure (store error, an entry that is not JSON or
// whose view does not decode) is a miss — the ring can always
// recompute.
func (s *Scheduler) cacheGet(ctx context.Context, key string) (outcome, bool) {
	if s.cache == nil {
		return outcome{}, false
	}
	body, ok, err := s.cache.Get(ctx, key)
	if err != nil || !ok {
		return outcome{}, false
	}
	res, err := frontendsim.DecodeResultView(body)
	if err != nil {
		return outcome{}, false
	}
	return outcome{body: body, res: res, cached: true}, true
}

// cacheSet writes one dispatched body back to the scheduler-tier store
// verbatim, best-effort: a store failure only costs a later recompute.
func (s *Scheduler) cacheSet(ctx context.Context, key string, body []byte) {
	if s.cache != nil {
		s.cache.Set(ctx, key, body)
	}
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

// permanent reports whether err cannot be cured by trying another
// backend, so the ring walk must stop: the caller's own cancellation or
// deadline (retrying a dead request would hammer the remaining
// backends), or a request error (4xx — every backend would refuse the
// same request).  A per-attempt transport timeout (the HTTP client's
// own deadline, with the caller's context still live) stays retryable:
// that is exactly the hung-backend case failover exists for.
func permanent(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return true
	}
	if errors.Is(err, context.Canceled) {
		// A Canceled without ctx being done can only have leaked in from
		// the caller side of a race; no backend produces one.
		return true
	}
	var be *BackendError
	return errors.As(err, &be) && !be.Retryable()
}

// dispatchKey walks the key's ring sequence on the caller's goroutine:
// the home node first, then up to retries failover nodes, one attempt at
// a time.  Nodes whose circuit breaker is open are skipped without
// costing an attempt or a backoff; when every permitted node is open,
// the home node is forced (it doubles as a breaker probe) rather than
// failing with nothing tried.  After a failed attempt the next admitted
// node is tried after the jittered retry backoff.  Request errors (4xx —
// every backend would refuse) and the caller's own cancellation abort
// the walk immediately.
func (s *Scheduler) dispatchKey(ctx context.Context, key string, req frontendsim.Request) (outcome, error) {
	s.dispatched.Add(1)
	nodes := s.Ring().Sequence(key)
	nodes = nodes[:s.attempts(len(nodes))]

	walked := 0
	// next advances to the next node whose circuit admits a request, or
	// returns -1 when every remaining node is breaker-open.  It asks the
	// breaker lazily, one node at a time: allow admits half-open probes
	// as a side effect, so a node the walk will not try is never asked.
	next := func() int {
		for walked < len(nodes) {
			idx := walked
			walked++
			if s.allowNode(nodes[idx]) {
				return idx
			}
		}
		return -1
	}
	idx := next()
	if idx < 0 {
		// Refusing outright would make a fleet-wide blip self-sustaining:
		// no requests, no probes, no recovery.
		idx = 0
	}
	fired := 0
	var lastErr error
	for ; idx >= 0; idx = next() {
		if fired > 0 {
			s.retried.Add(1)
			if err := s.backoff(ctx, fired); err != nil {
				return outcome{}, err
			}
		}
		fired++
		node := nodes[idx]
		body, res, err := s.client.Simulate(ctx, node, req)
		s.reportAttempt(ctx, node, err)
		if err == nil {
			return outcome{body: body, res: res}, nil
		}
		if permanent(ctx, err) {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return outcome{}, ctxErr
			}
			return outcome{}, err
		}
		lastErr = err
	}
	return outcome{}, &ExhaustedError{Benchmark: req.Benchmark, Attempts: fired, Last: lastErr}
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
