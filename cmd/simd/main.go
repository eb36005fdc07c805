// Command simd serves thermal simulations over HTTP: a thin
// request/response frontend (in the spirit of Thanos's query-frontend)
// over the public frontendsim Engine, with a pluggable response store
// keyed on the canonical request hash.
//
// Usage:
//
//	simd [-addr :8723] [-cache 512] [-workers N]
//	     [-store-dir DIR] [-store-max-bytes N]
//	     [-max-queue 64] [-queue-wait 5s]
//	     [-announce SCHED_URL] [-self SELF_URL]
//	     [-pprof ADDR]
//
// Every run uses the paper's simulation lengths unless its request sets
// warmup_ops, measure_ops or interval_cycles: lengths are part of the
// canonical request key, so no process-wide default can make two tiers
// key or compute the same request differently.
//
// Admission control: at most -workers simulations run concurrently; up
// to -max-queue further requests wait at most -queue-wait for a slot.
// Anything beyond either bound is shed immediately with 503 and a
// Retry-After header (visible as simd_shed_total{reason} on /metrics)
// instead of stacking goroutines behind clients that will give up
// anyway.  Zero for either flag removes that bound.
//
// With -announce, simd registers -self with the scheduler's ring admin
// API on startup (retrying until the scheduler answers) and departs on
// graceful shutdown — a restarted backend rejoins the ring by itself,
// even after the scheduler evicted it.  Replicas never copy results
// between each other: a result's bytes are a pure function of its key,
// so a rejoined replica computes each key of its slice on first touch
// (MISS, one engine run) and serves it from its own store after that.
//
// The response store follows from the tier flags
// (resultstore.OpenStack):
//
//	-store-dir DIR          crash-safe disk segments under DIR; survive restarts
//	-cache N (N > 0)        in-process LRU of N entries, write-through in
//	                        front of the disk tier, or alone without one
//
// With the default -cache 512, -store-dir keeps the hot set in RAM and
// everything across a restart; without it, results live in memory only
// and die with the process.  Results are write-once (a result's bytes
// are a pure function of its key), so the disk tier never rewrites a
// record and needs no compaction.
//
// Endpoints:
//
//	POST /v1/simulations        JSON request -> JSON result (cached, coalesced)
//	POST /v1/simulations/stream JSON request -> NDJSON per-interval stream
//	GET  /v1/benchmarks         available benchmark profiles
//	GET  /v1/cache/stats        per-tier response-store counters
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               readiness (503 while draining or when the
//	                            response store is down)
//
// Whole suites fan in through cmd/simsched; simsched over this one
// replica (-backends http://localhost:8723) is the single-node mode.
//
// Example:
//
//	simd -store-dir /var/lib/simd
//	curl -s localhost:8723/v1/simulations -d '{"benchmark":"gzip","frontends":2,"bank_hopping":true}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

func main() {
	var (
		addr      = flag.String("addr", ":8723", "listen address")
		cacheSize = flag.Int("cache", 512, "memory-tier response entries (0 disables the memory tier)")
		storeDir  = flag.String("store-dir", "", "disk-tier segment directory (empty: no disk tier)")
		storeMax  = flag.Int64("store-max-bytes", resultstore.DefaultMaxBytes, "disk-store total size cap in bytes")
		workers   = flag.Int("workers", 0, "max concurrent simulations (default: GOMAXPROCS)")
		maxQueue  = flag.Int("max-queue", 64, "max requests waiting for a simulation slot; excess is shed with 503 (0 = unbounded)")
		queueWait = flag.Duration("queue-wait", 5*time.Second, "max time a request waits for a simulation slot before being shed with 503 (0 = unbounded)")
		announce  = flag.String("announce", "", "scheduler base URL to join on startup and depart on shutdown (empty disables)")
		self      = flag.String("self", "", "advertised base URL of this backend (required with -announce)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	)
	flag.Parse()

	if *announce != "" && *self == "" {
		fmt.Fprintln(os.Stderr, "simd: -announce requires -self (the URL the scheduler should route to)")
		os.Exit(2)
	}

	serve.Pprof("simd", *pprofAddr)

	store, err := resultstore.OpenStack(*cacheSize,
		resultstore.DiskConfig{Dir: *storeDir, MaxBytes: *storeMax})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(2)
	}
	if store == nil {
		// -cache 0 with no back tier: every request recomputes.
		store = resultstore.NewMemory(0)
	}
	defer store.Close()

	eng := frontendsim.New(frontendsim.WithWorkers(*workers))
	api := simd.NewServerWithStore(eng, store,
		simd.WithMetrics(obs.NewRegistry()),
		simd.WithAdmission(*maxQueue, *queueWait))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}

	// SIGTERM included so orchestrated stops (systemd, containers) get
	// the same drain-and-depart path as an interactive Ctrl-C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Draining fails the health check first so the scheduler's probes
	// stop routing new work here; depart then tells the scheduler
	// explicitly, before the listener closes.
	var depart func()
	if *announce != "" {
		depart = func() {
			departCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := membership.Depart(departCtx, nil, *announce, *self); err != nil {
				fmt.Fprintf(os.Stderr, "simd: depart: %v\n", err)
			}
		}
	}

	// Startup sequencing: the replica is ready as soon as it listens
	// (it serves any key, recomputing what its store lacks), then it
	// announces itself.
	if *announce != "" {
		go func() {
			// Register with the scheduler once it answers; a restarted
			// backend rejoins the ring this way even after eviction.
			for {
				annCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
				err := membership.Announce(annCtx, nil, *announce, *self)
				cancel()
				if err == nil {
					fmt.Fprintf(os.Stderr, "simd: joined ring at %s as %s\n", *announce, *self)
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
	}

	var tiers []string
	for _, t := range store.Stats() {
		tiers = append(tiers, t.Tier)
	}
	fmt.Fprintf(os.Stderr, "simd: listening on %s, %s store (%s)\n",
		*addr, strings.Join(tiers, "→"), simd.Describe())
	if err := serve.Run(ctx, ln, api, depart); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
