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
//	         [-retries -1] [-cache 512] [-workers N]
//	         [-timeout 10m] [-probe-interval 2s]
//	         [-probe-timeout 1s] [-quarantine-threshold 3] [-evict-after 1m]
//	         [-retry-backoff 5ms] [-partial-results] [-pprof ADDR]
//
// Resilience: retries within one dispatch wait out a jittered
// exponential backoff (-retry-backoff, 0 disables) before the next ring
// node.  Every dispatch verdict also feeds the membership registry, so
// -quarantine-threshold consecutive failures of live traffic quarantine
// a backend between probe rounds, and the ring routes around it.  When
// every backend is quarantined the last ring stays, so dispatches keep
// trying backends and the first to answer serves.  A reinstated backend
// recomputes the keys it missed on first touch.  With -partial-results, a suite whose shards
// exhaust the ring answers 200 with per-shard `errors` entries and
// X-Cache: PARTIAL-ERROR instead of failing the whole sweep.
//
// The scheduler-tier cache is a memory LRU of -cache entries, built the
// way simd's store is (resultstore.OpenStack); -cache 0 disables the
// tier.
//
// No flag sets a simulation length or the ring's shape, so simsched and
// its backends cannot disagree on either: both key and run every
// request at the paper's lengths unless the request (or a suite's
// request template) sets warmup_ops, measure_ops or interval_cycles,
// and both build the ring with hashring.DefaultReplicas virtual points
// per backend.
//
// Over one backend (-backends http://localhost:8723) simsched is the
// single-node mode: simd itself serves no suite routes.
//
// Example:
//
//	simd -addr :8723 & simd -addr :8733 &
//	simsched -backends http://localhost:8723,http://localhost:8733
//	curl -s localhost:8724/v1/suites -d '{"benchmarks":["gzip","mcf"],"request":{"bank_hopping":true}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// splitServers parses a comma-separated host:port list.
func splitServers(s string) []string {
	var out []string
	for _, addr := range strings.Split(s, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			out = append(out, addr)
		}
	}
	return out
}

func main() {
	var (
		addr      = flag.String("addr", ":8724", "listen address")
		backends  = flag.String("backends", "", "comma-separated simd base URLs (required)")
		retries   = flag.Int("retries", 0, "failover nodes tried after the home backend (0 = all remaining, -1 = none)")
		cache     = flag.Int("cache", 512, "scheduler-tier memory cache entries (0 disables the memory tier)")
		workers   = flag.Int("workers", 0, "max concurrent backend dispatches per suite (default: GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 10*time.Minute, "per-backend-request timeout")
		probeInt  = flag.Duration("probe-interval", 2*time.Second, "backend health-probe interval")
		probeTO   = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		quarAfter = flag.Int("quarantine-threshold", 3, "consecutive probe or dispatch failures before a backend is quarantined")
		evictAft  = flag.Duration("evict-after", time.Minute, "quarantine time before permanent eviction (negative disables)")
		backoff   = flag.Duration("retry-backoff", 5*time.Millisecond, "jittered exponential backoff base between ring-walk retries (0 disables)")
		partial   = flag.Bool("partial-results", false, "degrade suite runs gracefully: per-shard error entries and X-Cache: PARTIAL-ERROR instead of failing the whole suite")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty disables)")
	)
	flag.Parse()

	serve.Pprof("simsched", *pprofAddr)

	nodes := splitServers(*backends)
	for i, b := range nodes {
		nodes[i] = strings.TrimRight(b, "/")
	}
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "simsched: -backends is required (comma-separated simd base URLs)")
		os.Exit(2)
	}

	eng := frontendsim.New(frontendsim.WithWorkers(*workers))
	// A nil store (-cache 0) disables the tier.
	store, err := resultstore.OpenStack(*cache, resultstore.DiskConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simsched:", err)
		os.Exit(2)
	}
	metrics := obs.NewRegistry()
	// members is assigned below, before the server starts accepting
	// requests; the closure lets the scheduler feed dispatch verdicts
	// back into the registry that will own the ring.
	var members *membership.Registry
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:       nodes,
		Retries:        *retries,
		HTTPClient:     &http.Client{Timeout: *timeout},
		Cache:          store,
		Metrics:        metrics,
		RetryBackoff:   *backoff,
		PartialResults: *partial,
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
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simsched:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "simsched: listening on %s, %d backend(s) (%s)\n",
		*addr, len(nodes), scheduler.Describe())
	if err := serve.Run(ctx, ln, api, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
