// Package chaos is the seeded fault-injection integration suite (`make
// chaos`): a small simd fleet (internal/fleet) behind faultinject
// proxies, driven through the real scheduler, asserting the resilience
// layer end to end — zero client-visible errors in strict mode under
// latency spikes, injected 500s and a flapping backend; correct
// PARTIAL-ERROR accounting in degraded mode; passive quarantine before
// any probe round; 503 + Retry-After shedding from a saturated backend;
// a degraded store tier; a replica that rejoins with an empty store and
// recomputes its slice; one that restarts over its own disk store and
// serves its slice warm; and one that is reinstated and recomputes its
// slice.  All fault draws come from seeded PRNGs, and every suite is
// built from the ring's actual key assignment, so the scenarios do not
// depend on port numbers or timing luck.
package chaos

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/scheduler"
)

// engineOpts keeps every tier (backends, scheduler, serial reference) on
// identical short simulations, so cross-tier cache keys align and runs
// stay fast.
func engineOpts() []frontendsim.Option {
	return []frontendsim.Option{
		frontendsim.WithWarmupOps(12_000),
		frontendsim.WithMeasureOps(25_000),
	}
}

// newFleet starts cfg's fleet, on engineOpts unless cfg sets its own,
// and closes it when the test ends.
func newFleet(t *testing.T, cfg fleet.Config) *fleet.Fleet {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = engineOpts()
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// newScheduler builds a scheduler over f (and, with mcfg, a membership
// registry wired to it), failing the test on error.
func newScheduler(t *testing.T, f *fleet.Fleet, cfg scheduler.Config, mcfg *membership.Config) (*scheduler.Scheduler, *membership.Registry) {
	t.Helper()
	sched, members, err := f.Scheduler(cfg, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched, members
}

// homedOn returns the benchmarks whose ring home is url, using the
// scheduler's real key assignment — chaos scenarios target a specific
// backend without guessing which shards it owns.
func homedOn(t *testing.T, sched *scheduler.Scheduler, eng *frontendsim.Engine, url string) []string {
	t.Helper()
	var out []string
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if sched.Ring().Sequence(key)[0] == url {
			out = append(out, bench)
		}
	}
	return out
}

// metricSum sums the values of every sample line of metric name in a
// Prometheus text exposition, keeping only lines containing filter
// (filter "" keeps all).  Histogram/summary series are matched by their
// full sample name (name can be "x_count").
func metricSum(t *testing.T, exposition, name, filter string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		if filter != "" && !strings.Contains(line, filter) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestChaosStrictModeZeroClientErrors drives a suite through a fleet
// with latency spikes, a 10%-500 backend, and a flapping backend that
// drops its first requests outright: the ring walk plus jittered
// backoff absorbs every injected fault, the client sees zero errors,
// and the response is byte-identical to a fault-free serial run.
func TestChaosStrictModeZeroClientErrors(t *testing.T) {
	f := newFleet(t, fleet.Config{Replicas: 3, FaultSeed: 42})
	eng := f.Engine
	reg := obs.NewRegistry()
	sched, _ := newScheduler(t, f, scheduler.Config{
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	}, nil)

	// Latency spikes on node 0 (never an error), injected 500s on node
	// 1 (10% of its traffic, bounded so the run always terminates), and
	// a flapping node 2: its first 4 requests drop at the TCP level,
	// then it behaves.  Node 0 never fails, so every shard's ring walk
	// has a safe harbor.
	f.Replicas[0].Faults.Add(faultinject.Rule{Latency: 20 * time.Millisecond})
	f.Replicas[1].Faults.Add(faultinject.Rule{Status: 500, Probability: 0.1, MaxCount: 10})
	f.Replicas[2].Faults.Add(faultinject.Rule{Drop: true, MaxCount: 4})

	// Build the suite from the ring's real assignment: two shards homed
	// on every node, so each injector's traffic is guaranteed (shards
	// homed on the flapping node hit its drops and exercise the retry
	// path), plus a handful of bulk benchmarks.
	var picked []string
	for _, r := range f.Replicas {
		homed := homedOn(t, sched, eng, r.URL)
		if len(homed) < 2 {
			t.Fatalf("only %d benchmarks homed on %s; need 2", len(homed), r.URL)
		}
		picked = append(picked, homed[:2]...)
	}
	suite := frontendsim.SuiteRequest{Benchmarks: append(frontendsim.Benchmarks()[:4], picked...)}

	res, err := sched.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatalf("strict-mode suite failed under injected faults: %v", err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("strict-mode result carries shard errors: %+v", res.Errors)
	}
	for i, r := range res.Results {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
	}

	// Byte-identical to a fault-free serial run of the same suite.
	serial, err := frontendsim.New(engineOpts()...).RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	want, _ := json.Marshal(serial)
	if string(got) != string(want) {
		t.Error("suite result under chaos differs from the serial reference")
	}

	// The injected drops forced ring-walk retries, each preceded by a
	// recorded jittered backoff.
	if st := sched.Stats(); st.Retried == 0 || st.Backoffs == 0 {
		t.Errorf("stats = %+v, want retries and backoffs under injected faults", st)
	}
	exposition := reg.Render()
	if n := metricSum(t, exposition, "sched_retry_backoff_seconds_count", ""); n < 1 {
		t.Errorf("sched_retry_backoff_seconds_count = %v, want >= 1", n)
	}
	st0, st2 := f.Replicas[0].Faults.Stats(), f.Replicas[2].Faults.Stats()
	if st0.Latency < 2 {
		t.Errorf("latency injector fired %d times, want >= 2 (two shards homed there)", st0.Latency)
	}
	if st2.Drop < 2 {
		t.Errorf("flapping node dropped %d requests, want >= 2 (two shards homed there)", st2.Drop)
	}
}

// TestChaosPartialErrorDegradedMode kills one benchmark on every node
// (its ring walk exhausts) and asserts the degraded-mode contract over
// real HTTP: 200 with X-Cache: PARTIAL-ERROR and per-shard error
// entries on /v1/suites, and a {"type":"shard-error"} line followed by
// the terminal aggregate on /v1/suites/stream.
func TestChaosPartialErrorDegradedMode(t *testing.T) {
	f := newFleet(t, fleet.Config{Replicas: 3, FaultSeed: 43})
	const doomed = "mcf"
	for _, r := range f.Replicas {
		r.Faults.Add(faultinject.Rule{BodyContains: `"benchmark":"` + doomed + `"`, Status: 500})
	}
	reg := obs.NewRegistry()
	sched, _ := newScheduler(t, f, scheduler.Config{
		RetryBackoff:   time.Millisecond,
		PartialResults: true,
		Metrics:        reg,
	}, nil)
	front := httptest.NewServer(scheduler.NewServer(sched, scheduler.WithMetrics(reg)))
	t.Cleanup(front.Close)

	body := `{"benchmarks":["gzip","` + doomed + `","swim"]}`
	resp, err := http.Post(front.URL+"/v1/suites", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded suite status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "PARTIAL-ERROR" {
		t.Errorf("X-Cache = %q, want PARTIAL-ERROR", got)
	}
	var res frontendsim.SuiteResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || res.Errors[0].Benchmark != doomed {
		t.Fatalf("errors = %+v, want one %s entry", res.Errors, doomed)
	}
	if res.Results[1] != nil || res.Results[0] == nil || res.Results[2] == nil {
		t.Error("results: want nil at the doomed position, values elsewhere")
	}
	if res.Aggregate.Benchmarks != 2 {
		t.Errorf("aggregate over %d benchmarks, want the 2 survivors", res.Aggregate.Benchmarks)
	}

	// The stream renders the same failure as a shard-error line and
	// still terminates with the aggregate.
	sresp, err := http.Post(front.URL+"/v1/suites/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawShardError, last := false, ""
	for sc.Scan() {
		last = sc.Text()
		if strings.Contains(last, `"type":"shard-error"`) && strings.Contains(last, doomed) {
			sawShardError = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawShardError {
		t.Error("stream carried no shard-error line for the doomed benchmark")
	}
	if !strings.Contains(last, `"type":"aggregate"`) {
		t.Errorf("terminal stream line = %q, want the aggregate", last)
	}
}

// TestChaosPassiveQuarantineBeforeProbeRound kills one backend and
// asserts the passive path alone — no health probe ever runs —
// quarantines it in the membership registry and drops it from the
// scheduler's ring, visible in ring_passive_reports_total{result="fail"}.
func TestChaosPassiveQuarantineBeforeProbeRound(t *testing.T) {
	f := newFleet(t, fleet.Config{Replicas: 3, FaultSeed: 44})
	dead := f.Replicas[0].URL
	f.Replicas[0].Faults.Add(faultinject.Rule{Drop: true}) // dead, permanently

	eng := f.Engine
	reg := obs.NewRegistry()
	sched, members := newScheduler(t, f, scheduler.Config{
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
	}, &membership.Config{
		ProbeInterval:   time.Hour, // never started anyway: passive only
		QuarantineAfter: 2,
		EvictAfter:      -1,
		Metrics:         reg,
	})

	onDead := homedOn(t, sched, eng, dead)
	if len(onDead) < 2 {
		t.Fatalf("only %d benchmarks homed on the dead node; need 2", len(onDead))
	}
	for _, bench := range onDead[:2] {
		if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: bench}); err != nil {
			t.Fatalf("dispatch %s should have failed over: %v", bench, err)
		}
	}

	// Two live-traffic failures: the member is quarantined — before any
	// probe round has run.
	if n := metricSum(t, reg.Render(), "ring_passive_reports_total", `result="fail"`); n < 2 {
		t.Errorf(`ring_passive_reports_total{result="fail"} = %v, want >= 2`, n)
	}
	active := members.Active()
	if len(active) != 2 {
		t.Fatalf("active members = %v, want the 2 healthy nodes", active)
	}
	for _, url := range active {
		if url == dead {
			t.Fatal("dead node still active")
		}
	}
	if st := members.Stats(); st.PassiveReports == 0 || st.Quarantines != 1 {
		t.Errorf("membership stats = %+v, want passive reports and 1 quarantine", st)
	}
	// The quarantine swapped the scheduler's ring: the dead node is no
	// longer routable at all.
	if st := sched.Stats(); st.RingSwaps != 1 {
		t.Errorf("ring swaps = %d, want 1 (quarantine-driven)", st.RingSwaps)
	}
}

// TestChaosSaturatedSimdSheds saturates a one-worker simd with a
// one-deep admission queue: of 6 concurrent distinct requests exactly
// one is served and five are shed with 503 + Retry-After and a JSON
// envelope, all visible in simd_shed_total on /metrics.
func TestChaosSaturatedSimdSheds(t *testing.T) {
	reg := obs.NewRegistry()
	url := newFleet(t, fleet.Config{
		Replicas: 1,
		Engine: []frontendsim.Option{
			// Long enough to hold its slot while the other requests
			// arrive and shed.
			frontendsim.WithWarmupOps(400_000),
			frontendsim.WithMeasureOps(800_000),
			frontendsim.WithWorkers(1),
		},
		Server: []simd.Option{simd.WithMetrics(reg), simd.WithAdmission(1, 20*time.Millisecond)},
	}).Replicas[0].URL

	benches := frontendsim.Benchmarks()[:6]
	statuses := make([]int, len(benches))
	retryAfter := make([]string, len(benches))
	bodies := make([]string, len(benches))
	var wg sync.WaitGroup
	for i, bench := range benches {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/simulations", "application/json",
				strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
			if err != nil {
				t.Errorf("post %s: %v", bench, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			var env struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&env)
			bodies[i] = env.Error
		}(i, bench)
	}
	wg.Wait()

	served, shed := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
			if sec, err := strconv.Atoi(retryAfter[i]); err != nil || sec < 1 {
				t.Errorf("shed %s: Retry-After = %q, want a positive integer", benches[i], retryAfter[i])
			}
			if bodies[i] == "" {
				t.Errorf("shed %s: empty JSON error envelope", benches[i])
			}
		default:
			t.Errorf("%s: status %d, want 200 or 503", benches[i], st)
		}
	}
	if served != 1 || shed != 5 {
		t.Fatalf("served %d / shed %d, want exactly 1 / 5", served, shed)
	}

	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if n := metricSum(t, sb.String(), "simd_shed_total", ""); n != 5 {
		t.Errorf("simd_shed_total = %v, want 5", n)
	}
}
