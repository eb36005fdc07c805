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
//	     [-warmup-peer URL,...] [-warmup-timeout 2m] [-antientropy-interval D]
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
// even after the scheduler evicted it.
//
// Peers' stored results reach this replica through one repair engine,
// anti-entropy: per-bucket key-set digest exchanges over the peers'
// store planes that pull the entries this replica is missing.
//
// With -warmup-peer, a joining replica first runs anti-entropy to
// convergence over its own ring slice — every reachable -warmup-peer,
// pass after pass, until a pass fails no pull under a stable ring epoch
// — before reporting ready: /healthz answers 503 and the ring
// announcement waits, so the scheduler never routes to a cold replica.
// The slice is computed from the scheduler's current ring (-announce)
// plus this replica; without -announce every peer key is pulled.
// Convergence that exhausts -warmup-timeout logs the shortfall and
// serves cold rather than never joining.
//
// With -antientropy-interval > 0, the same engine then runs as a
// background loop against a ring neighbor, so divergence from missed
// writes heals in the background instead of surfacing as recomputation.
// Its peers come from the scheduler ring (-announce) or, without one,
// the static -warmup-peer list.
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
//	GET  /v1/store/...          read-only store plane: keys, digest, entries
//	                            (anti-entropy repair pulls from it)
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
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
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
		addr      = flag.String("addr", ":8723", "listen address")
		cacheSize = flag.Int("cache", 512, "memory-tier response entries (0 disables the memory tier)")
		storeDir  = flag.String("store-dir", "", "disk-tier segment directory (empty: no disk tier)")
		storeMax  = flag.Int64("store-max-bytes", resultstore.DefaultMaxBytes, "disk-store total size cap in bytes")
		workers   = flag.Int("workers", 0, "max concurrent simulations (default: GOMAXPROCS)")
		maxQueue  = flag.Int("max-queue", 64, "max requests waiting for a simulation slot; excess is shed with 503 (0 = unbounded)")
		queueWait = flag.Duration("queue-wait", 5*time.Second, "max time a request waits for a simulation slot before being shed with 503 (0 = unbounded)")
		announce  = flag.String("announce", "", "scheduler base URL to join on startup and depart on shutdown (empty disables)")
		self      = flag.String("self", "", "advertised base URL of this backend (required with -announce)")
		warmPeers = flag.String("warmup-peer", "", "comma-separated peer simd base URLs to converge this replica's ring slice from before reporting ready (empty disables)")
		warmTO    = flag.Duration("warmup-timeout", 2*time.Minute, "join-time convergence deadline; on expiry the replica logs the shortfall and serves cold")
		aeIvl     = flag.Duration("antientropy-interval", 0, "background digest-exchange repair period (0 disables; needs -self plus -announce or -warmup-peer)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	)
	flag.Parse()

	if *announce != "" && *self == "" {
		fmt.Fprintln(os.Stderr, "simd: -announce requires -self (the URL the scheduler should route to)")
		os.Exit(2)
	}
	if *aeIvl > 0 && (*self == "" || (*announce == "" && *warmPeers == "")) {
		fmt.Fprintln(os.Stderr, "simd: -antientropy-interval requires -self plus -announce or -warmup-peer")
		os.Exit(2)
	}

	pprofserve.Maybe("simd", *pprofAddr)

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
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGTERM included so orchestrated stops (systemd, containers) get
	// the same drain-and-depart path as an interactive Ctrl-C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Fail the health check first so the scheduler's probes stop
		// routing new work here, then tell it explicitly and drain.
		api.SetReady(false)
		if *announce != "" {
			departCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := membership.Depart(departCtx, nil, *announce, *self); err != nil {
				fmt.Fprintf(os.Stderr, "simd: depart: %v\n", err)
			}
			cancel()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	// Startup sequencing: converge the store from peers first (the replica
	// answers /healthz 503 the whole time, so probes keep it out of
	// rotation), then flip ready, then announce — the scheduler never
	// sees a joined-but-cold replica.
	announceLoop := func() {
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
	}
	peerList := splitServers(*warmPeers)
	for i, p := range peerList {
		peerList[i] = strings.TrimRight(p, "/")
	}
	newAntiEntropy := func(peers []string) *simd.AntiEntropy {
		ae, err := api.NewAntiEntropy(simd.AntiEntropyConfig{
			SelfURL:  *self,
			RingURL:  *announce,
			Peers:    peers,
			Interval: *aeIvl,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return ae
	}
	var repair *simd.AntiEntropy
	if *aeIvl > 0 {
		// Prefer live ring discovery; fall back to the static peer list
		// when no scheduler is announced.
		aePeers := []string(nil)
		if *announce == "" {
			aePeers = peerList
		}
		repair = newAntiEntropy(aePeers)
		defer repair.Close()
	}
	join := func() {
		if repair != nil {
			repair.Start()
		}
		if *announce != "" {
			announceLoop()
		}
	}
	if len(peerList) > 0 {
		// Join-time convergence pulls from exactly the -warmup-peer
		// list; the ring (with -announce) only picks the slice.
		joiner := newAntiEntropy(peerList)
		api.SetReady(false)
		go func() {
			convergeCtx, cancel := context.WithTimeout(ctx, *warmTO)
			pulled, err := joiner.Converge(convergeCtx)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "simd: join-time convergence incomplete, serving cold: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "simd: join-time convergence done: pulled %d\n", pulled)
			}
			api.SetReady(true)
			join()
		}()
	} else {
		go join()
	}

	var tiers []string
	for _, t := range store.Stats() {
		tiers = append(tiers, t.Tier)
	}
	fmt.Fprintf(os.Stderr, "simd: listening on %s, %s store (%s)\n",
		*addr, strings.Join(tiers, "→"), simd.Describe())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
