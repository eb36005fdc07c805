// Command simd serves thermal simulations over HTTP: a thin
// request/response frontend (in the spirit of Thanos's query-frontend)
// over the public frontendsim Engine, with a pluggable response store
// keyed on the canonical request hash.
//
// Usage:
//
//	simd [-addr :8723] [-cache 512] [-workers N]
//	     [-store memory|disk|tiered|remote|tiered-remote] [-store-dir DIR]
//	     [-store-max-bytes N] [-remote-servers HOST:PORT,...] [-remote-ttl D]
//	     [-compact-threshold 0.5] [-compact-interval 30s]
//	     [-max-queue 64] [-queue-wait 5s] [-partial-results]
//	     [-announce SCHED_URL] [-self SELF_URL]
//	     [-warmup-peer URL,...] [-warmup-timeout 2m] [-antientropy-interval D]
//	     [-warmup N] [-measure N] [-interval N] [-pprof ADDR]
//
// Admission control: at most -workers simulations run concurrently; up
// to -max-queue further requests wait at most -queue-wait for a slot.
// Anything beyond either bound is shed immediately with 503 and a
// Retry-After header (visible as simd_shed_total{reason} on /metrics)
// instead of stacking goroutines behind clients that will give up
// anyway.  Zero for either flag removes that bound.
//
// With -partial-results, a suite whose shards partly fail answers 200
// with per-shard `errors` entries, an aggregate over the shards that
// completed, and X-Cache: PARTIAL-ERROR (the streaming endpoint emits
// {"type":"shard-error"} lines) — graceful degradation instead of one
// dead shard failing the sweep.
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
// Store backends (-store):
//
//	memory         in-process LRU of -cache entries; dies with the process (default)
//	disk           crash-safe segment files under -store-dir; survives restarts
//	tiered         memory LRU in front of the disk store, write-through — the
//	               hot set answers from RAM, everything survives a restart
//	remote         shared memcached tier at -remote-servers; replicas on
//	               different machines serve each other's results
//	tiered-remote  memory LRU in front of the remote tier — the production
//	               fleet shape: hot set in RAM, shared tier across machines,
//	               and an unreachable remote degrades to local serving
//
// Disk-backed stores run a background compactor (see -compact-threshold
// / -compact-interval): sealed segments whose live-byte ratio falls
// below the threshold are rewritten so overwrite-heavy workloads
// reclaim space without waiting for whole-segment eviction.
//
// Endpoints:
//
//	POST /v1/simulations        JSON request -> JSON result (cached, coalesced)
//	POST /v1/simulations/stream JSON request -> NDJSON per-interval stream
//	POST /v1/suites             whole-suite run (single-node mode; see simsched)
//	POST /v1/suites/stream      suite run as NDJSON: per-shard lines as they
//	                            complete, terminal deterministic aggregate
//	GET  /v1/benchmarks         available benchmark profiles
//	GET  /v1/cache/stats        per-tier response-store counters
//	GET  /metrics               Prometheus text exposition
//	GET  /healthz               readiness (503 while draining or when the
//	                            response store is down)
//
// Example:
//
//	simd -store tiered -store-dir /var/lib/simd
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

// storeFlags is the store-related flag set shared by buildStore.
type storeFlags struct {
	kind          string
	dir           string
	maxBytes      int64
	cacheSize     int
	remoteServers string
	remoteTTL     time.Duration
}

// buildStore assembles the response store selected by the flags.  The
// *Disk return is non-nil when a disk tier is part of the stack, so the
// caller can hang the background compactor off it.
func buildStore(f storeFlags) (resultstore.Store, *resultstore.Disk, error) {
	switch f.kind {
	case "memory":
		return resultstore.NewMemory(f.cacheSize), nil, nil
	case "disk", "tiered":
		if f.dir == "" {
			return nil, nil, fmt.Errorf("simd: -store=%s requires -store-dir", f.kind)
		}
		disk, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: f.dir, MaxBytes: f.maxBytes})
		if err != nil {
			return nil, nil, err
		}
		if f.kind == "disk" {
			return disk, disk, nil
		}
		return resultstore.NewTiered(resultstore.NewMemory(f.cacheSize), disk), disk, nil
	case "remote", "tiered-remote":
		if f.remoteServers == "" {
			return nil, nil, fmt.Errorf("simd: -store=%s requires -remote-servers", f.kind)
		}
		remote, err := resultstore.NewRemote(resultstore.RemoteConfig{
			Servers: splitServers(f.remoteServers),
			TTL:     f.remoteTTL,
		})
		if err != nil {
			return nil, nil, err
		}
		if f.kind == "remote" {
			return remote, nil, nil
		}
		return resultstore.NewTiered(resultstore.NewMemory(f.cacheSize), remote), nil, nil
	}
	return nil, nil, fmt.Errorf("simd: unknown -store %q (memory|disk|tiered|remote|tiered-remote)", f.kind)
}

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
		storeKind = flag.String("store", "memory", "response store backend: memory|disk|tiered|remote|tiered-remote")
		storeDir  = flag.String("store-dir", "", "disk-store segment directory (required for -store=disk|tiered)")
		storeMax  = flag.Int64("store-max-bytes", resultstore.DefaultMaxBytes, "disk-store total size cap in bytes")
		remoteSrv = flag.String("remote-servers", "", "comma-separated memcached host:port list (required for -store=remote|tiered-remote)")
		remoteTTL = flag.Duration("remote-ttl", 0, "expiry stored with remote-store writes (0 = no expiry)")
		compactTh = flag.Float64("compact-threshold", resultstore.DefaultCompactThreshold, "rewrite a sealed disk segment when its live-byte ratio falls below this")
		compactIv = flag.Duration("compact-interval", 30*time.Second, "disk-store compaction scan period (0 disables the compactor)")
		workers   = flag.Int("workers", 0, "max concurrent simulations (default: GOMAXPROCS)")
		maxQueue  = flag.Int("max-queue", 64, "max requests waiting for a simulation slot; excess is shed with 503 (0 = unbounded)")
		queueWait = flag.Duration("queue-wait", 5*time.Second, "max time a request waits for a simulation slot before being shed with 503 (0 = unbounded)")
		partial   = flag.Bool("partial-results", false, "degrade suite runs gracefully: per-shard error entries and X-Cache: PARTIAL-ERROR instead of failing the whole suite")
		warmup    = flag.Uint64("warmup", 0, "default warmup micro-ops (0 = paper default)")
		measure   = flag.Uint64("measure", 0, "default measured micro-ops (0 = paper default)")
		interval  = flag.Uint64("interval", 0, "default interval cycles (0 = paper default)")
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

	if *compactTh <= 0 || *compactTh > 1 {
		fmt.Fprintf(os.Stderr, "simd: -compact-threshold %v out of range (0, 1]\n", *compactTh)
		os.Exit(2)
	}

	pprofserve.Maybe("simd", *pprofAddr)

	store, disk, err := buildStore(storeFlags{
		kind:          *storeKind,
		dir:           *storeDir,
		maxBytes:      *storeMax,
		cacheSize:     *cacheSize,
		remoteServers: *remoteSrv,
		remoteTTL:     *remoteTTL,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer store.Close()
	if disk != nil && *compactIv > 0 {
		compactor := resultstore.StartCompactor(disk, resultstore.CompactorConfig{
			Threshold: *compactTh,
			Interval:  *compactIv,
		})
		defer compactor.Close()
	}

	eng := frontendsim.New(
		frontendsim.WithWarmupOps(*warmup),
		frontendsim.WithMeasureOps(*measure),
		frontendsim.WithIntervalCycles(*interval),
		frontendsim.WithWorkers(*workers),
	)
	apiOpts := []simd.Option{
		simd.WithMetrics(obs.NewRegistry()),
		simd.WithAdmission(*maxQueue, *queueWait),
	}
	if *partial {
		apiOpts = append(apiOpts, simd.WithPartialResults())
	}
	api := simd.NewServerWithStore(eng, store, apiOpts...)
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

	fmt.Fprintf(os.Stderr, "simd: listening on %s, %s store (%s)\n",
		*addr, *storeKind, simd.Describe())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
