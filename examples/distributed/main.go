// Distributed deep-dive, both senses of the word: the paper's §3.1
// distributed rename & commit frontend, run through the system's own
// distributed serving tier — three in-process simd backends behind the
// consistent-hashing suite scheduler (pkg/scheduler, cmd/simsched),
// sharing one tiered result store (pkg/resultstore: memory in front of
// crash-safe disk segments, the stand-in for a Thanos-style shared
// results cache).
//
// The example runs one suite centralized vs distributed-frontend and
// shows the scheduler's aggregate byte-identical to a serial in-process
// Engine.RunSuite — then breaks things on purpose:
//
//  1. a backend is killed mid-demo and its keys are served by the
//     surviving replicas straight from the shared store (failover with
//     zero recomputation),
//  2. a scheduler-tier response cache answers a repeated suite without
//     dispatching to any backend at all,
//  3. the whole fleet "restarts" — fresh engines, fresh memory — and the
//     reopened disk tier still serves every key, and
//  4. the ring manages itself: health probes quarantine a killed
//     backend, evict it past the deadline, and a restarted replica
//     rejoins through the admin API — all under continuous client load
//     with zero visible errors, watched through /metrics, and
//  5. the same suite is served through POST /v1/suites/stream: with a
//     warm scheduler cache and a deliberately slow backend, the cached
//     shards arrive on the wire in the first milliseconds while the one
//     missing shard is still in flight — first-line latency decouples
//     from completion latency, and the terminal aggregate line stays
//     byte-identical to the blocking response, and
//  6. the fleet is fronted by pkg/faultinject reverse proxies and a
//     failure scenario is scripted at runtime over the /__faults
//     control API: a budget of injected 500s lands on one replica, the
//     scheduler rides through it with failovers and jittered backoff,
//     the injected faults show up in the proxy's own stats endpoint,
//     and deleting the rule returns the fleet to quiet — all without
//     restarting anything.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simd"
	"repro/pkg/faultinject"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// engineRuns counts actual simulations across every backend engine —
// the ground truth for "served from the store, not recomputed".
var engineRuns atomic.Int64

func backendOpts() []frontendsim.Option {
	return []frontendsim.Option{
		frontendsim.WithWarmupOps(40_000),
		frontendsim.WithMeasureOps(100_000),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				engineRuns.Add(1)
			}
		})),
	}
}

// newBackends starts n in-process simd replicas sharing one result
// store; in production each would be its own `simd -store-dir ...`
// process in front of a shared cache tier.
func newBackends(n int, store resultstore.Store) []*httptest.Server {
	out := make([]*httptest.Server, n)
	for i := range out {
		out[i] = httptest.NewServer(simd.NewServerWithStore(frontendsim.New(backendOpts()...), store))
	}
	return out
}

func urls(backends []*httptest.Server) []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.URL
	}
	return out
}

// waitReady polls each backend's /healthz until it answers 200 — never
// sleep for "probably started by now"; ask the readiness endpoint.
func waitReady(backends []string) {
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range backends {
		for {
			resp, err := http.Get(u + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("backend %s never became ready", u))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func suite(frontends int) frontendsim.SuiteRequest {
	return frontendsim.SuiteRequest{
		Benchmarks: []string{"gzip", "gcc", "mcf", "crafty", "parser", "swim"},
		Request:    frontendsim.Request{Frontends: frontends},
	}
}

func main() {
	ctx := context.Background()
	opts := []frontendsim.Option{
		frontendsim.WithWarmupOps(40_000),
		frontendsim.WithMeasureOps(100_000),
	}

	// The shared result store: a memory LRU in front of crash-safe disk
	// segments.  Every backend reads and writes the same store, so any
	// replica can serve any other replica's results.
	dir, err := os.MkdirTemp("", "resultstore-demo-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	disk, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: dir})
	if err != nil {
		fatal(err)
	}
	shared := resultstore.NewTiered(resultstore.NewMemory(256), disk)

	backends := newBackends(3, shared)
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	waitReady(urls(backends))
	eng := frontendsim.New(opts...)
	sched, err := scheduler.New(eng, scheduler.Config{Backends: urls(backends)})
	if err != nil {
		fatal(err)
	}

	fmt.Println("Suite sharding by canonical request key (consistent hashing):")
	for _, bench := range suite(2).Benchmarks {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench, Frontends: 2})
		if err != nil {
			fatal(err)
		}
		for i, n := range urls(backends) {
			if sched.Ring().Node(key) == n {
				fmt.Printf("  %-8s -> backend %d  (key %s…)\n", bench, i, key[:12])
			}
		}
	}
	fmt.Println()

	base, err := sched.RunSuite(ctx, suite(0))
	if err != nil {
		fatal(err)
	}
	dist, err := sched.RunSuite(ctx, suite(2))
	if err != nil {
		fatal(err)
	}

	fmt.Println("Centralized vs distributed frontend (§3.1), 6-benchmark suite")
	fmt.Printf("%-28s %12s %12s\n", "", "centralized", "distributed")
	fmt.Printf("%-28s %12.3f %12.3f\n", "mean IPC", base.Aggregate.MeanIPC, dist.Aggregate.MeanIPC)
	fmt.Printf("%-28s %12d %12d\n", "total cycles", base.Aggregate.TotalCycles, dist.Aggregate.TotalCycles)
	fmt.Printf("%-28s %12s %12.2f%%\n", "slowdown", "-",
		(float64(dist.Aggregate.TotalCycles)/float64(base.Aggregate.TotalCycles)-1)*100)
	for _, unit := range []string{frontendsim.UnitROB, frontendsim.UnitRAT, frontendsim.UnitTraceCache} {
		b, d := base.Aggregate.Units[unit], dist.Aggregate.Units[unit]
		fmt.Printf("%-28s %11.1fC %11.1fC  (-%.1f%% peak rise)\n", unit+" peak rise",
			b.AbsMax, d.AbsMax, (b.AbsMax-d.AbsMax)/b.AbsMax*100)
	}
	fmt.Println()

	// The distributed serving tier is invisible in the numbers: the
	// scheduler's aggregate is byte-identical to a serial in-process run.
	serial, err := frontendsim.New(append(opts, frontendsim.WithWorkers(1))...).RunSuite(ctx, suite(2))
	if err != nil {
		fatal(err)
	}
	distJSON, _ := json.Marshal(dist)
	serialJSON, _ := json.Marshal(serial)
	fmt.Printf("scheduler result == serial Engine.RunSuite: %v\n", bytes.Equal(distJSON, serialJSON))
	fmt.Printf("engine runs so far: %d (12 unique benchmark/config keys)\n\n", engineRuns.Load())

	// --- Failure 1: kill a backend; its keys live in the shared store. ---
	fmt.Println("Killing backend 0; its keys fail over to surviving replicas,")
	fmt.Println("which answer from the shared result store without recomputing:")
	backends[0].Close()
	before := engineRuns.Load()
	again, err := sched.RunSuite(ctx, suite(2))
	if err != nil {
		fatal(err)
	}
	againJSON, _ := json.Marshal(again)
	st := sched.Stats()
	fmt.Printf("  re-run after kill: byte-identical=%v, %d ring failovers, %d new engine runs\n\n",
		bytes.Equal(againJSON, serialJSON), st.Retried, engineRuns.Load()-before)

	// --- Failure 2 (the absence of one): the scheduler-tier cache. ---
	// A scheduler with its own response cache answers a repeated suite
	// at the frontend tier — zero dispatches, zero backend contact.
	cachedSched, err := scheduler.New(eng, scheduler.Config{
		Backends: urls(backends),
		Cache:    resultstore.NewMemory(64),
	})
	if err != nil {
		fatal(err)
	}
	if _, _, err := cachedSched.RunSuiteServed(ctx, suite(2)); err != nil {
		fatal(err)
	}
	dispatchedBefore := cachedSched.Stats().Dispatched
	_, served, err := cachedSched.RunSuiteServed(ctx, suite(2))
	if err != nil {
		fatal(err)
	}
	fmt.Println("Scheduler-tier response cache (simsched -cache):")
	fmt.Printf("  repeated suite: X-Cache=%s, %d/6 shards cached, %d new dispatches\n\n",
		served.XCache(), served.Cached, cachedSched.Stats().Dispatched-dispatchedBefore)

	// --- Failure 3: restart everything; only the disk segments remain. ---
	fmt.Println("Restarting the fleet: fresh engines, fresh memory tier, reopened disk store:")
	for _, b := range backends[1:] {
		b.Close()
	}
	if err := shared.Close(); err != nil {
		fatal(err)
	}
	disk2, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: dir})
	if err != nil {
		fatal(err)
	}
	reopened := resultstore.NewTiered(resultstore.NewMemory(256), disk2)
	defer reopened.Close()
	backends2 := newBackends(3, reopened)
	defer func() {
		for _, b := range backends2 {
			b.Close()
		}
	}()
	waitReady(urls(backends2))
	sched2, err := scheduler.New(eng, scheduler.Config{Backends: urls(backends2)})
	if err != nil {
		fatal(err)
	}
	before = engineRuns.Load()
	rerun, err := sched2.RunSuite(ctx, suite(2))
	if err != nil {
		fatal(err)
	}
	rerunJSON, _ := json.Marshal(rerun)
	fmt.Printf("  post-restart suite: byte-identical=%v, %d new engine runs\n",
		bytes.Equal(rerunJSON, serialJSON), engineRuns.Load()-before)
	for _, tier := range reopened.Stats() {
		fmt.Printf("  %-6s tier: %d entries, %d hits, %d misses\n",
			tier.Tier, tier.Entries, tier.Hits, tier.Misses)
	}
	fmt.Println()

	// --- Act 4: the self-managing ring. ---
	// The same fleet, now owned by a membership registry: active health
	// probes, quarantine on consecutive failures, eviction past a
	// deadline, rejoin through the scheduler's admin API — all while a
	// client hammers the fleet and must never see an error.
	fmt.Println("Self-managing ring: kill -> quarantine -> evict -> rejoin, under load:")
	metrics := obs.NewRegistry()
	ringSched, err := scheduler.New(eng, scheduler.Config{
		Backends: urls(backends2),
		Metrics:  metrics,
	})
	if err != nil {
		fatal(err)
	}
	members, err := membership.New(membership.Config{
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    time.Second,
		QuarantineAfter: 2,
		EvictAfter:      150 * time.Millisecond,
		OnChange:        ringSched.OnMembershipChange(),
		Metrics:         metrics,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}, urls(backends2))
	if err != nil {
		fatal(err)
	}
	members.Start()
	defer members.Close()
	admin := httptest.NewServer(scheduler.NewServer(ringSched,
		scheduler.WithMembership(members), scheduler.WithMetrics(metrics)))
	defer admin.Close()

	// Continuous client load against the ring for the whole lifecycle.
	var clientErrors, clientRequests atomic.Int64
	loadDone := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-loadDone:
				return
			default:
			}
			bench := suite(2).Benchmarks[i%6]
			_, err := ringSched.Dispatch(ctx, frontendsim.Request{Benchmark: bench, Frontends: 2})
			clientRequests.Add(1)
			if err != nil {
				clientErrors.Add(1)
			}
		}
	}()
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("timed out waiting for %s", what))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	victim := backends2[0]
	fmt.Printf("  killing %s\n", victim.URL)
	victim.Close()
	waitFor("quarantine", func() bool { return len(members.Active()) == 2 })
	waitFor("eviction", func() bool { return len(members.Snapshot()) == 2 })

	// "Restart" the backend: a fresh replica over the same shared store,
	// announcing itself to the scheduler the way `simd -announce` does.
	replacement := newBackends(1, reopened)[0]
	defer replacement.Close()
	waitReady([]string{replacement.URL})
	if err := membership.Announce(ctx, nil, admin.URL, replacement.URL); err != nil {
		fatal(err)
	}
	waitFor("rejoin", func() bool { return len(members.Active()) == 3 })
	close(loadDone)
	loadWG.Wait()

	st = ringSched.Stats()
	fmt.Printf("  ring epoch %d, %d members active, %d ring swaps\n",
		members.Epoch(), len(members.Active()), st.RingSwaps)
	fmt.Printf("  client saw %d errors in %d requests during the whole lifecycle (%d failovers absorbed)\n",
		clientErrors.Load(), clientRequests.Load(), st.Retried)
	fmt.Println("  /metrics excerpt (simsched serves the full exposition on GET /metrics):")
	for _, line := range strings.Split(metrics.Render(), "\n") {
		if strings.HasPrefix(line, "ring_transitions_total") || strings.HasPrefix(line, "ring_members") {
			fmt.Printf("    %s\n", line)
		}
	}
	if clientErrors.Load() > 0 {
		fatal(fmt.Errorf("client-visible errors during ring lifecycle"))
	}
	fmt.Println()

	// --- Act 5: the streamed fan-in. ---
	// One deliberately slow backend (every round trip pays a fixed tax —
	// a congested link, a loaded replica) behind a scheduler whose
	// response cache holds 5 of the suite's 6 shards.  The blocking
	// endpoint would sit on the whole suite until the slow shard lands;
	// the stream hands over the 5 warm shards in the first milliseconds.
	fmt.Println("Streamed suite fan-in (/v1/suites/stream), warm cache + one slow backend:")
	const backendDelay = 250 * time.Millisecond
	slowInner := simd.NewServerWithStore(frontendsim.New(backendOpts()...), reopened)
	slowBackend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(backendDelay)
		slowInner.ServeHTTP(w, r)
	}))
	defer slowBackend.Close()
	streamSched, err := scheduler.New(eng, scheduler.Config{
		Backends: []string{slowBackend.URL},
		Cache:    resultstore.NewMemory(64),
	})
	if err != nil {
		fatal(err)
	}
	// Warm the scheduler-tier cache for every benchmark but the last.
	for _, bench := range suite(2).Benchmarks[:5] {
		if _, err := streamSched.Dispatch(ctx, frontendsim.Request{Benchmark: bench, Frontends: 2}); err != nil {
			fatal(err)
		}
	}
	streamSrv := httptest.NewServer(scheduler.NewServer(streamSched))
	defer streamSrv.Close()

	suiteBody, err := json.Marshal(suite(2))
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(streamSrv.URL+"/v1/suites/stream", "application/json", bytes.NewReader(suiteBody))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()

	var firstLine time.Duration
	var cachedLines, dispatchedLines int
	var terminal *frontendsim.SuiteResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line frontendsim.SuiteStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			fatal(err)
		}
		switch line.Type {
		case "shard":
			if firstLine == 0 {
				firstLine = time.Since(start)
			}
			if line.Source == "HIT" {
				cachedLines++
			} else {
				dispatchedLines++
			}
			fmt.Printf("  shard %-8s %-5s t=%-6v positions=%v\n",
				line.Benchmark, line.Source, time.Since(start).Round(time.Millisecond), line.Positions)
		case "aggregate":
			terminal = line.Suite
		case "error":
			fatal(fmt.Errorf("stream error line: %s", line.Error))
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	completed := time.Since(start)
	if terminal == nil {
		fatal(fmt.Errorf("stream ended without an aggregate line"))
	}
	terminalJSON, _ := json.Marshal(terminal)
	fmt.Printf("  first line after %v, completion after %v (the slow backend taxes every dispatch %v)\n",
		firstLine.Round(time.Millisecond), completed.Round(time.Millisecond), backendDelay)
	fmt.Printf("  %d shards streamed from the warm cache ahead of %d dispatched; terminal aggregate byte-identical to the blocking run: %v\n",
		cachedLines, dispatchedLines, bytes.Equal(terminalJSON, serialJSON))
	if cachedLines != 5 || dispatchedLines != 1 {
		fatal(fmt.Errorf("streamed %d cached / %d dispatched shards, want 5/1", cachedLines, dispatchedLines))
	}
	if firstLine >= backendDelay {
		fatal(fmt.Errorf("first streamed line took %v — not earlier than the slow shard's %v dispatch", firstLine, backendDelay))
	}
	if !bytes.Equal(terminalJSON, serialJSON) {
		fatal(fmt.Errorf("streamed aggregate differs from the serial reference"))
	}
	fmt.Println()

	// --- Act 6: scripted chaos through the fault-injection proxies. ---
	// The live fleet, now reached through pkg/faultinject reverse proxies
	// — rule-driven stand-ins for a flaky network path.  The failure
	// scenario is scripted over each proxy's /__faults control API with
	// plain HTTP while suites keep flowing: a deterministic budget of
	// injected 500s lands on the home replica of the suite's first shard,
	// the scheduler rides through it (failover + jittered backoff,
	// byte-identical result), the injections are visible in the proxy's
	// own stats, and deleting the rule returns the fleet to quiet.
	fmt.Println("Scripted chaos (pkg/faultinject), driven over the /__faults control API:")
	live := []*httptest.Server{backends2[1], backends2[2], replacement}
	proxies := make([]*httptest.Server, len(live))
	for i, b := range live {
		proxies[i] = httptest.NewServer(faultinject.NewProxy(b.URL, faultinject.New(int64(600+i)), nil))
		defer proxies[i].Close()
	}
	chaosMetrics := obs.NewRegistry()
	chaosSched, err := scheduler.New(eng, scheduler.Config{
		Backends:     urls(proxies),
		RetryBackoff: 2 * time.Millisecond,
		Metrics:      chaosMetrics,
	})
	if err != nil {
		fatal(err)
	}
	gzipKey, err := eng.RequestKey(frontendsim.Request{Benchmark: "gzip", Frontends: 2})
	if err != nil {
		fatal(err)
	}
	home := chaosSched.Ring().Node(gzipKey)

	ruleResp, err := http.Post(home+faultinject.ControlPrefix+"/rules", "application/json",
		strings.NewReader(`{"match":{"path":"/v1/simulations"},"status":500,"max_count":2}`))
	if err != nil {
		fatal(err)
	}
	var installed struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(ruleResp.Body).Decode(&installed); err != nil {
		fatal(err)
	}
	ruleResp.Body.Close()
	fmt.Printf("  POST %s/rules on gzip's home replica -> %s: its next 2 dispatches answer 500\n",
		faultinject.ControlPrefix, installed.ID)

	before = engineRuns.Load()
	chaosRun, err := chaosSched.RunSuite(ctx, suite(2))
	if err != nil {
		fatal(err)
	}
	chaosJSON, _ := json.Marshal(chaosRun)
	st = chaosSched.Stats()
	fmt.Printf("  suite through the faults: byte-identical=%v, %d failovers, %d jittered backoffs, %d new engine runs\n",
		bytes.Equal(chaosJSON, serialJSON), st.Retried, st.Backoffs, engineRuns.Load()-before)
	if !bytes.Equal(chaosJSON, serialJSON) {
		fatal(fmt.Errorf("chaos suite differs from the serial reference"))
	}
	if st.Retried == 0 || st.Backoffs == 0 {
		fatal(fmt.Errorf("injected 500s were never exercised (retried=%d backoffs=%d)", st.Retried, st.Backoffs))
	}
	for _, line := range strings.Split(chaosMetrics.Render(), "\n") {
		if strings.HasPrefix(line, "sched_retry_backoff_seconds_count") {
			fmt.Printf("  /metrics: %s\n", line)
		}
	}

	statsResp, err := http.Get(home + faultinject.ControlPrefix + "/stats")
	if err != nil {
		fatal(err)
	}
	var injStats faultinject.Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&injStats); err != nil {
		fatal(err)
	}
	statsResp.Body.Close()
	fmt.Printf("  GET %s/stats -> %d requests seen, %d injected 500s\n",
		faultinject.ControlPrefix, injStats.Requests, injStats.Status)

	del, err := http.NewRequest(http.MethodDelete,
		home+faultinject.ControlPrefix+"/rules?id="+installed.ID, nil)
	if err != nil {
		fatal(err)
	}
	delResp, err := http.DefaultClient.Do(del)
	if err != nil {
		fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("DELETE rule: status %d", delResp.StatusCode))
	}
	retriedBefore := st.Retried
	quiet, err := chaosSched.RunSuite(ctx, suite(2))
	if err != nil {
		fatal(err)
	}
	quietJSON, _ := json.Marshal(quiet)
	fmt.Printf("  DELETE the rule, re-run: byte-identical=%v, %d new failovers — the fleet is quiet again\n",
		bytes.Equal(quietJSON, serialJSON), chaosSched.Stats().Retried-retriedBefore)
	if !bytes.Equal(quietJSON, serialJSON) || chaosSched.Stats().Retried != retriedBefore {
		fatal(fmt.Errorf("post-chaos suite not clean"))
	}
}
