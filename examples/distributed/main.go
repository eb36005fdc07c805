// Distributed deep-dive, both senses of the word: the paper's §3.1
// distributed rename & commit frontend, run through the system's own
// serving tier — three in-process simd replicas (internal/fleet), each
// over its own memory-over-disk result store as `simd -store-dir` runs,
// behind seeded fault proxies (internal/faultinject) and the
// consistent-hashing suite scheduler (pkg/scheduler, cmd/simsched).
//
// The example runs one suite centralized vs distributed-frontend and
// shows the scheduler's aggregate byte-identical to a serial in-process
// Engine.RunSuite — then breaks things on purpose:
//
//  1. a replica is killed and its keys fail over to the next replica on
//     the ring, which recomputes them byte-identically,
//  2. a scheduler-tier response cache answers a repeated suite without
//     dispatching to any backend at all,
//  3. the whole fleet restarts and every replica serves its slice warm
//     from its own disk directory,
//  4. the ring manages itself: probes quarantine a killed replica and
//     evict it, and the restarted replica rejoins through the admin API
//     — under continuous client load with zero visible errors,
//  5. POST /v1/suites/stream over a warm scheduler cache and a slowed
//     replica hands over the cached shards in the first milliseconds,
//     and its terminal aggregate is byte-identical to the blocking run,
//  6. a budget of injected 500s on one replica's fault proxy is ridden
//     through with failovers and jittered backoff, and removing the
//     rule returns the fleet to quiet.
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
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

func suite(frontends int) frontendsim.SuiteRequest {
	return frontendsim.SuiteRequest{
		Benchmarks: []string{"gzip", "gcc", "mcf", "crafty", "parser", "swim"},
		Request:    frontendsim.Request{Frontends: frontends},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	opts := []frontendsim.Option{
		frontendsim.WithWarmupOps(40_000),
		frontendsim.WithMeasureOps(100_000),
	}
	f, err := fleet.New(fleet.Config{
		Replicas:  3,
		Engine:    opts,
		Store:     fleet.DiskStore(256),
		FaultSeed: 600,
	})
	if err != nil {
		return err
	}
	defer f.Close()
	sched, _, err := f.Scheduler(scheduler.Config{}, nil)
	if err != nil {
		return err
	}

	fmt.Println("Suite sharding by canonical request key (consistent hashing):")
	var victim *fleet.Replica // gzip's home: the replica the demo kills and faults
	for _, bench := range suite(2).Benchmarks {
		key, err := f.Engine.RequestKey(frontendsim.Request{Benchmark: bench, Frontends: 2})
		if err != nil {
			return err
		}
		for i, r := range f.Replicas {
			if sched.Ring().Node(key) != r.URL {
				continue
			}
			fmt.Printf("  %-8s -> replica %d  (key %s…)\n", bench, i, key[:12])
			if bench == "gzip" {
				victim = r
			}
		}
	}
	fmt.Println()

	base, err := sched.RunSuite(ctx, suite(0))
	if err != nil {
		return err
	}
	dist, err := sched.RunSuite(ctx, suite(2))
	if err != nil {
		return err
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
		return err
	}
	distJSON, _ := json.Marshal(dist)
	serialJSON, _ := json.Marshal(serial)
	// same runs suite(2) through s and fails unless its aggregate is the
	// serial reference's bytes.
	same := func(s *scheduler.Scheduler, what string) error {
		res, err := s.RunSuite(ctx, suite(2))
		if got, _ := json.Marshal(res); err == nil && !bytes.Equal(got, serialJSON) {
			err = fmt.Errorf("%s: suite differs from the serial reference", what)
		}
		return err
	}
	fmt.Printf("scheduler result == serial Engine.RunSuite: %v\n", bytes.Equal(distJSON, serialJSON))
	fmt.Printf("engine runs so far: %d (12 unique benchmark/config keys)\n\n", f.Runs())

	// --- Failure 1: kill a replica; its successor recomputes its keys. ---
	fmt.Printf("Killing gzip's home %s; its keys fail over to the next replica on the\n", victim.URL)
	fmt.Println("ring, which recomputes them (replicas never share or copy results):")
	victim.Kill()
	before := f.Runs()
	if err := same(sched, "after the kill"); err != nil {
		return err
	}
	fmt.Printf("  re-run after kill: byte-identical, %d ring failovers, %d keys recomputed\n\n",
		sched.Stats().Retried, f.Runs()-before)

	// --- Failure 2 (the absence of one): the scheduler-tier cache. ---
	// A scheduler with its own response cache answers a repeated suite
	// at the frontend tier — zero dispatches, zero backend contact.
	cachedSched, _, err := f.Scheduler(scheduler.Config{Cache: resultstore.NewMemory(64)}, nil)
	if err != nil {
		return err
	}
	if _, _, err := cachedSched.RunSuiteServed(ctx, suite(2)); err != nil {
		return err
	}
	dispatchedBefore := cachedSched.Stats().Dispatched
	_, served, err := cachedSched.RunSuiteServed(ctx, suite(2))
	if err != nil {
		return err
	}
	fmt.Println("Scheduler-tier response cache (simsched -cache):")
	fmt.Printf("  repeated suite: X-Cache=%s, %d/6 shards cached, %d new dispatches\n\n",
		served.XCache(), served.Cached, cachedSched.Stats().Dispatched-dispatchedBefore)

	// --- Failure 3: restart everything; each disk directory remains. ---
	fmt.Println("Restarting the fleet: fresh engines and memory tiers, each replica's disk store reopened:")
	for _, r := range f.Replicas {
		if err := r.Restart(); err != nil {
			return err
		}
	}
	if err := f.WaitReady(10 * time.Second); err != nil {
		return err
	}
	if err := same(sched, "after the restart"); err != nil {
		return err
	}
	fmt.Printf("  post-restart suite: byte-identical, %d new engine runs\n\n", f.Runs())
	if f.Runs() != 0 {
		return fmt.Errorf("restarted fleet recomputed instead of serving its slices warm")
	}

	// --- Act 4: the self-managing ring. ---
	// The same fleet, now owned by a membership registry: active health
	// probes, quarantine on consecutive failures, eviction past a
	// deadline, rejoin through the scheduler's admin API — all while a
	// client hammers the fleet and must never see an error.
	fmt.Println("Self-managing ring: kill -> quarantine -> evict -> rejoin, under load:")
	metrics := obs.NewRegistry()
	ringSched, members, err := f.Scheduler(scheduler.Config{Metrics: metrics}, &membership.Config{
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    time.Second,
		QuarantineAfter: 2,
		EvictAfter:      150 * time.Millisecond,
		Metrics:         metrics,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	members.Start()
	admin := httptest.NewServer(scheduler.NewServer(ringSched,
		scheduler.WithMembership(members), scheduler.WithMetrics(metrics)))
	defer admin.Close()

	// Continuous client load against the ring for the whole lifecycle.
	var clientErrors, clientRequests int
	loadCtx, stopLoad := context.WithCancel(ctx)
	loadStopped := make(chan struct{})
	go func() {
		defer close(loadStopped)
		for i := 0; loadCtx.Err() == nil; i++ {
			bench := suite(2).Benchmarks[i%6]
			_, err := ringSched.Dispatch(ctx, frontendsim.Request{Benchmark: bench, Frontends: 2})
			clientRequests++
			if err != nil {
				clientErrors++
			}
		}
	}()

	// Kill the replica; once it is evicted, restart it over its own
	// directory and announce it to the scheduler, the way `simd
	// -announce` does.
	fmt.Printf("  killing %s\n", victim.URL)
	victim.Kill()
	err = fleet.Await(10*time.Second, "quarantine", func() bool { return len(members.Active()) == 2 })
	if err == nil {
		err = fleet.Await(10*time.Second, "eviction", func() bool { return len(members.Snapshot()) == 2 })
	}
	if err == nil {
		err = victim.Restart()
	}
	if err == nil {
		err = membership.Announce(ctx, nil, admin.URL, victim.URL)
	}
	if err == nil {
		err = fleet.Await(10*time.Second, "rejoin", func() bool { return len(members.Active()) == 3 })
	}
	stopLoad()
	<-loadStopped
	if err != nil {
		return err
	}

	st := ringSched.Stats()
	fmt.Printf("  ring epoch %d, %d members active, %d ring swaps\n",
		members.Epoch(), len(members.Active()), st.RingSwaps)
	fmt.Printf("  client saw %d errors in %d requests during the whole lifecycle (%d failovers absorbed)\n",
		clientErrors, clientRequests, st.Retried)
	fmt.Println("  /metrics excerpt (simsched serves the full exposition on GET /metrics):")
	for _, line := range strings.Split(metrics.Render(), "\n") {
		if strings.HasPrefix(line, "ring_transitions_total") || strings.HasPrefix(line, "ring_members") {
			fmt.Printf("    %s\n", line)
		}
	}
	if clientErrors > 0 {
		return fmt.Errorf("client-visible errors during ring lifecycle")
	}
	fmt.Println()

	// --- Act 5: the streamed fan-in. ---
	// One deliberately slow replica (a latency rule on its fault proxy:
	// a congested link, a loaded replica) behind a scheduler whose
	// response cache holds 5 of the suite's 6 shards.  The blocking
	// endpoint would sit on the whole suite until the slow shard lands;
	// the stream hands over the 5 warm shards in the first milliseconds.
	fmt.Println("Streamed suite fan-in (/v1/suites/stream), warm cache + one slow replica:")
	const backendDelay = 250 * time.Millisecond
	slow := f.Replicas[1]
	streamSched, _, err := f.Scheduler(scheduler.Config{
		Backends: []string{slow.URL},
		Cache:    resultstore.NewMemory(64),
	}, nil)
	if err != nil {
		return err
	}
	// Warm the scheduler-tier cache for every benchmark but the last.
	for _, bench := range suite(2).Benchmarks[:5] {
		if _, err := streamSched.Dispatch(ctx, frontendsim.Request{Benchmark: bench, Frontends: 2}); err != nil {
			return err
		}
	}
	slowRule := slow.Faults.Add(faultinject.Rule{Latency: backendDelay})
	streamSrv := httptest.NewServer(scheduler.NewServer(streamSched))
	defer streamSrv.Close()

	suiteBody, err := json.Marshal(suite(2))
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := http.Post(streamSrv.URL+"/v1/suites/stream", "application/json", bytes.NewReader(suiteBody))
	if err != nil {
		return err
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
			return err
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
			return fmt.Errorf("stream error line: %s", line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	completed := time.Since(start)
	slow.Faults.Remove(slowRule)
	terminalJSON, _ := json.Marshal(terminal)
	ok := bytes.Equal(terminalJSON, serialJSON)
	fmt.Printf("  first line after %v, completion after %v (the slow replica taxes every dispatch %v)\n",
		firstLine.Round(time.Millisecond), completed.Round(time.Millisecond), backendDelay)
	fmt.Printf("  %d shards streamed from the warm cache ahead of %d dispatched; terminal aggregate byte-identical to the blocking run: %v\n\n",
		cachedLines, dispatchedLines, ok)
	if cachedLines != 5 || dispatchedLines != 1 || firstLine >= backendDelay || !ok {
		return fmt.Errorf("stream: want 5 cached shards ahead of 1 dispatched, the first before %v, and the serial reference's aggregate",
			backendDelay)
	}

	// --- Act 6: scripted chaos through the fault-injection proxies. ---
	// A deterministic budget of injected 500s lands on the home replica
	// of the suite's first shard while suites keep flowing: the
	// scheduler rides through it (failover + jittered backoff,
	// byte-identical result), the injections show in the injector's
	// stats, and removing the rule returns the fleet to quiet.
	fmt.Println("Scripted chaos (internal/faultinject) on the live fleet:")
	chaosMetrics := obs.NewRegistry()
	chaosSched, _, err := f.Scheduler(scheduler.Config{
		RetryBackoff: 2 * time.Millisecond,
		Metrics:      chaosMetrics,
	}, nil)
	if err != nil {
		return err
	}
	rule := victim.Faults.Add(faultinject.Rule{Path: "/v1/simulations", Status: 500, MaxCount: 2})
	fmt.Printf("  Add(%s) on gzip's home replica: its next 2 dispatches answer 500\n", rule)

	before = f.Runs()
	if err := same(chaosSched, "through the faults"); err != nil {
		return err
	}
	st = chaosSched.Stats()
	fmt.Printf("  suite through the faults: byte-identical, %d failovers, %d jittered backoffs, %d new engine runs\n",
		st.Retried, st.Backoffs, f.Runs()-before)
	if st.Retried == 0 || st.Backoffs == 0 {
		return fmt.Errorf("injected 500s were never exercised (retried=%d backoffs=%d)", st.Retried, st.Backoffs)
	}
	for _, line := range strings.Split(chaosMetrics.Render(), "\n") {
		if strings.HasPrefix(line, "sched_retry_backoff_seconds_count") {
			fmt.Printf("  /metrics: %s\n", line)
		}
	}
	injStats := victim.Faults.Stats()
	fmt.Printf("  Stats() -> %d requests seen, %d injected 500s\n", injStats.Requests, injStats.Status)

	victim.Faults.Remove(rule)
	retriedBefore := st.Retried
	if err := same(chaosSched, "after Remove"); err != nil {
		return err
	}
	fmt.Printf("  Remove(%s), re-run: byte-identical, %d new failovers — the fleet is quiet again\n",
		rule, chaosSched.Stats().Retried-retriedBefore)
	if chaosSched.Stats().Retried != retriedBefore {
		return fmt.Errorf("post-chaos suite not clean")
	}
	return nil
}
