// Command simsched is the multi-node suite scheduler: a query-frontend
// that shards benchmark-suite requests across a ring of simd backends by
// consistent hashing on the canonical request key, fails over to the
// next ring node when a backend dies, single-flights identical
// concurrent work, and aggregates results deterministically — the
// /v1/suites response is byte-identical to a serial in-process
// Engine.RunSuite.  POST /v1/suites/stream serves the same run as
// NDJSON, one line per shard the moment it completes (cache hits
// first), terminated by the same deterministic aggregate.
//
// A scheduler-tier response cache (Thanos query-frontend results
// cache) answers repeated suites without dispatching to any backend:
// every unique shard already in the cache is served at this tier, and
// the suite response carries X-Cache: HIT|PARTIAL|MISS accordingly.
//
// The backend ring is self-managing: every backend is health-probed on
// -probe-interval, quarantined (routed around, still probed) after
// -quarantine-threshold consecutive failures, reinstated by one
// successful probe, and evicted for good after -evict-after in
// quarantine.  Backends join and leave at runtime through POST/DELETE
// /v1/ring/members (simd's -announce flag does this automatically), and
// GET /metrics exposes the ring, dispatch and HTTP counters in
// Prometheus text format.
//
// Usage:
//
//	simsched -backends http://sim-1:8723,http://sim-2:8723 [-addr :8724]
//	         [-replicas 128] [-retries -1] [-cache 512] [-workers N]
//	         [-store memory|remote|tiered-remote] [-remote-servers HOST:PORT,...]
//	         [-remote-ttl D] [-timeout 10m] [-probe-interval 2s]
//	         [-probe-timeout 1s] [-quarantine-threshold 3] [-evict-after 1m]
//	         [-retry-backoff 5ms] [-breaker-threshold 3] [-breaker-cooldown 5s]
//	         [-hint-limit 256] [-partial-results]
//	         [-warmup N] [-measure N] [-interval N] [-pprof ADDR]
//
// Resilience: retries within one dispatch wait out a jittered
// exponential backoff (-retry-backoff, 0 disables) before the next ring
// node; -breaker-threshold consecutive dispatch failures open a
// per-backend circuit that diverts the ring walk around the backend for
// -breaker-cooldown before a single half-open probe (0 disables the
// breaker).  Every dispatch verdict also feeds the membership registry,
// so live traffic quarantines a flapping backend between probe rounds.
// With -partial-results, a suite whose shards exhaust the ring answers
// 200 with per-shard `errors` entries and X-Cache: PARTIAL-ERROR
// instead of failing the whole sweep.
//
// Hinted handoff: results computed while their home backend is
// quarantined are buffered (up to -hint-limit per backend, newest kept)
// and replayed into the backend's store the moment the membership
// registry reinstates it, so a briefly-dead backend answers its ring
// slice from cache instead of recomputing
// (sched_hints_{queued,replayed,dropped}_total on /metrics).
//
// The -warmup/-measure/-interval defaults must match the backends' simd
// flags: the scheduler canonicalizes requests under its own engine
// defaults, and matching flags keep the two tiers' cache keys aligned.
//
// Example:
//
//	simd -addr :8723 & simd -addr :8733 &
//	simsched -backends http://localhost:8723,http://localhost:8733
//	curl -s localhost:8724/v1/suites -d '{"benchmarks":["gzip","mcf"],"request":{"bank_hopping":true}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/pprofserve"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// buildStore assembles the scheduler-tier response cache.  A nil store
// (memory kind with -cache 0) disables the tier entirely.
func buildStore(kind string, cache int, remoteServers string, ttl time.Duration) (resultstore.Store, error) {
	newRemote := func() (resultstore.Store, error) {
		if remoteServers == "" {
			return nil, fmt.Errorf("simsched: -store=%s requires -remote-servers", kind)
		}
		var servers []string
		for _, addr := range strings.Split(remoteServers, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				servers = append(servers, addr)
			}
		}
		return resultstore.NewRemote(resultstore.RemoteConfig{Servers: servers, TTL: ttl})
	}
	switch kind {
	case "memory":
		if cache <= 0 {
			return nil, nil
		}
		return resultstore.NewMemory(cache), nil
	case "remote":
		return newRemote()
	case "tiered-remote":
		remote, err := newRemote()
		if err != nil {
			return nil, err
		}
		if cache <= 0 {
			return remote, nil
		}
		return resultstore.NewTiered(resultstore.NewMemory(cache), remote), nil
	}
	return nil, fmt.Errorf("simsched: unknown -store %q (memory|remote|tiered-remote)", kind)
}

func main() {
	var (
		addr      = flag.String("addr", ":8724", "listen address")
		backends  = flag.String("backends", "", "comma-separated simd base URLs (required)")
		replicas  = flag.Int("replicas", 0, "virtual ring points per backend (0 = default)")
		retries   = flag.Int("retries", 0, "failover nodes tried after the home backend (0 = all remaining, -1 = none)")
		cache     = flag.Int("cache", 512, "scheduler-tier response cache entries (0 disables)")
		storeKind = flag.String("store", "memory", "scheduler-tier response cache backend: memory|remote|tiered-remote")
		remoteSrv = flag.String("remote-servers", "", "comma-separated memcached host:port list (required for -store=remote|tiered-remote)")
		remoteTTL = flag.Duration("remote-ttl", 0, "expiry stored with remote-store writes (0 = no expiry)")
		workers   = flag.Int("workers", 0, "max concurrent backend dispatches per suite (default: GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 10*time.Minute, "per-backend-request timeout")
		probeInt  = flag.Duration("probe-interval", 2*time.Second, "backend health-probe interval")
		probeTO   = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		quarAfter = flag.Int("quarantine-threshold", 3, "consecutive probe failures before a backend is quarantined")
		evictAft  = flag.Duration("evict-after", time.Minute, "quarantine time before permanent eviction (negative disables)")
		backoff   = flag.Duration("retry-backoff", 5*time.Millisecond, "jittered exponential backoff base between ring-walk retries (0 disables)")
		brkThresh = flag.Int("breaker-threshold", 3, "consecutive dispatch failures that open a backend's circuit (0 disables the breaker)")
		brkCool   = flag.Duration("breaker-cooldown", 5*time.Second, "time an open circuit diverts traffic before a half-open probe")
		hintLimit = flag.Int("hint-limit", 256, "hinted-handoff entries buffered per quarantined backend, replayed on reinstatement (0 disables)")
		partial   = flag.Bool("partial-results", false, "degrade suite runs gracefully: per-shard error entries and X-Cache: PARTIAL-ERROR instead of failing the whole suite")
		warmup    = flag.Uint64("warmup", 0, "default warmup micro-ops (0 = paper default; match simd)")
		measure   = flag.Uint64("measure", 0, "default measured micro-ops (0 = paper default; match simd)")
		interval  = flag.Uint64("interval", 0, "default interval cycles (0 = paper default; match simd)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty disables)")
	)
	flag.Parse()

	pprofserve.Maybe("simsched", *pprofAddr)

	var nodes []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			nodes = append(nodes, strings.TrimRight(b, "/"))
		}
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "simsched: -backends is required (comma-separated simd base URLs)")
		os.Exit(2)
	}

	eng := frontendsim.New(
		frontendsim.WithWarmupOps(*warmup),
		frontendsim.WithMeasureOps(*measure),
		frontendsim.WithIntervalCycles(*interval),
		frontendsim.WithWorkers(*workers),
	)
	store, err := buildStore(*storeKind, *cache, *remoteSrv, *remoteTTL)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	metrics := obs.NewRegistry()
	if store != nil {
		resultstore.RegisterMetrics(metrics, store)
	}
	// members is assigned below, before the server starts accepting
	// requests; the closure lets the scheduler feed dispatch verdicts
	// back into the registry that will own the ring.
	var members *membership.Registry
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:         nodes,
		Replicas:         *replicas,
		Retries:          *retries,
		HTTPClient:       &http.Client{Timeout: *timeout},
		Cache:            store,
		Metrics:          metrics,
		RetryBackoff:     *backoff,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		HintLimit:        *hintLimit,
		PartialResults:   *partial,
		ReportDispatch: func(node string, err error) {
			if members != nil {
				members.ReportDispatch(node, err)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	members, err = membership.New(membership.Config{
		ProbeInterval:   *probeInt,
		ProbeTimeout:    *probeTO,
		QuarantineAfter: *quarAfter,
		EvictAfter:      *evictAft,
		OnChange:        sched.OnMembershipChange(),
		OnTransition:    sched.OnMembershipTransition(),
		Metrics:         metrics,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	members.Start()
	defer members.Close()

	api := scheduler.NewServer(sched,
		scheduler.WithMembership(members), scheduler.WithMetrics(metrics))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Fail the health check first so upstream load balancers stop
		// sending new suites here, then drain in-flight runs.
		api.SetReady(false)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "simsched: listening on %s, %d backend(s) (%s)\n",
		*addr, len(nodes), scheduler.Describe())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
