package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// Fleet settings.  Apart from the static ring (no membership registry:
// no workload has churn) and the absent disk compactor, these are the
// cmd/simd and cmd/simsched flag defaults.
const (
	fleetReplicas    = 3
	storeEntries     = 512
	simdMaxQueue     = 64
	simdQueueWait    = 5 * time.Second
	backendTimeout   = 10 * time.Minute
	retryBackoff     = 5 * time.Millisecond
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
	hintLimit        = 256
	// clientConns bounds the load generator's connections to simsched;
	// warm-suite runs this many closed-loop clients.
	clientConns = 2
)

type replica struct {
	srv   *simd.Server
	store resultstore.Store
	http  *httptest.Server
}

// fleet is one simsched in front of fleetReplicas simd replicas, all in
// this process, talking HTTP over loopback.
type fleet struct {
	replicas []replica
	sched    *scheduler.Scheduler
	http     *httptest.Server // simsched
	client   *http.Client     // the load generator's
	closers  []func() error
	dirs     []string
}

// startFleet builds a fresh fleet and waits until every /healthz answers
// 200.  diskDir, when set, gives each replica a memory tier in front of
// a disk store in a fresh directory under it.  A non-nil tracer installs
// the timing wrappers.
func startFleet(ctx context.Context, diskDir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, 0, fleetReplicas)
	for i := 0; i < fleetReplicas; i++ {
		store, err := f.replicaStore(diskDir)
		if err != nil {
			f.close()
			return nil, err
		}
		if tr != nil {
			store = tr.store("resultstore.simd", store)
		}
		srv := simd.NewServerWithStore(frontendsim.New(), store,
			simd.WithMetrics(obs.NewRegistry()),
			simd.WithAdmission(simdMaxQueue, simdQueueWait))
		var h http.Handler = srv
		if tr != nil {
			h = tr.handler("simd.handler", h)
		}
		ts := httptest.NewServer(h)
		f.closers = append(f.closers, func() error { ts.Close(); return nil })
		f.replicas = append(f.replicas, replica{srv: srv, store: store, http: ts})
		urls = append(urls, ts.URL)
	}

	backend := http.DefaultTransport.(*http.Transport).Clone()
	f.closers = append(f.closers, func() error { backend.CloseIdleConnections(); return nil })
	var rt http.RoundTripper = backend
	var cache resultstore.Store = resultstore.NewMemory(storeEntries)
	reg := obs.NewRegistry()
	resultstore.RegisterMetrics(reg, cache)
	if tr != nil {
		rt = tr.transport(rt)
		cache = tr.store("resultstore.sched", cache)
	}
	f.closers = append(f.closers, cache.Close)
	sched, err := scheduler.New(frontendsim.New(), scheduler.Config{
		Backends:         urls,
		HTTPClient:       &http.Client{Timeout: backendTimeout, Transport: rt},
		Cache:            cache,
		Metrics:          reg,
		RetryBackoff:     retryBackoff,
		BreakerThreshold: breakerThreshold,
		BreakerCooldown:  breakerCooldown,
		HintLimit:        hintLimit,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("bench: build scheduler: %w", err)
	}
	f.sched = sched
	var h http.Handler = scheduler.NewServer(sched, scheduler.WithMetrics(reg))
	if tr != nil {
		h = tr.handler("scheduler.handler", h)
	}
	f.http = httptest.NewServer(h)
	// Closers run in reverse: the frontend stops before its backends.
	f.closers = append(f.closers, func() error { f.http.Close(); return nil })

	ct := http.DefaultTransport.(*http.Transport).Clone()
	ct.MaxConnsPerHost = clientConns
	ct.MaxIdleConnsPerHost = clientConns
	f.client = &http.Client{Transport: ct}
	f.closers = append(f.closers, func() error { ct.CloseIdleConnections(); return nil })

	if err := f.waitReady(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// replicaStore builds one replica's response store: memory only, or a
// memory tier in front of a disk store in a fresh directory.
func (f *fleet) replicaStore(diskDir string) (resultstore.Store, error) {
	mem := resultstore.NewMemory(storeEntries)
	if diskDir == "" {
		f.closers = append(f.closers, mem.Close)
		return mem, nil
	}
	if err := os.MkdirAll(diskDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(diskDir, "store-")
	if err != nil {
		return nil, err
	}
	f.dirs = append(f.dirs, dir)
	disk, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("bench: open disk store: %w", err)
	}
	tiered := resultstore.NewTiered(mem, disk)
	f.closers = append(f.closers, tiered.Close)
	return tiered, nil
}

// waitReady polls every /healthz until it answers 200.
func (f *fleet) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	urls := []string{f.http.URL}
	for _, r := range f.replicas {
		urls = append(urls, r.http.URL)
	}
	for _, u := range urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := f.client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("bench: %s not ready: %w", u, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// close stops the servers, closes the stores and removes the disk
// directories.
func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

// engineRuns sums the replicas' writes into their last store tier (the
// counters /v1/cache/stats reports): every engine run stores its result
// exactly once, and nothing else writes there in these workloads.  The
// last tier, because a front tier also counts promotions.
func (f *fleet) engineRuns() uint64 {
	var n uint64
	for _, r := range f.replicas {
		if tiers := r.store.Stats(); len(tiers) > 0 {
			n += tiers[len(tiers)-1].Sets
		}
	}
	return n
}
