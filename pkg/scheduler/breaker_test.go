package scheduler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/frontendsim"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := newBreaker(3, time.Minute)
	node := "http://backend-1"
	fault := errors.New("boom")

	for i := 0; i < 2; i++ {
		if !b.allow(node) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.record(node, classifyDispatch(context.Background(), fault))
	}
	if b.stateOf(node) != breakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.record(node, outcomeFailure) // third consecutive failure
	if b.stateOf(node) != breakerOpen {
		t.Fatal("breaker did not open at threshold")
	}
	if b.allow(node) {
		t.Error("open breaker admitted a request inside the cooldown")
	}
	if b.opened.Load() != 1 {
		t.Errorf("opened transitions = %d, want 1", b.opened.Load())
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b := newBreaker(1, time.Minute)
	node := "http://backend-1"
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	b.allow(node)
	b.record(node, outcomeFailure)
	if b.allow(node) {
		t.Fatal("open breaker admitted a request")
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(2 * time.Minute)
	if !b.allow(node) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.stateOf(node) != breakerHalfOpen {
		t.Fatal("probe admission did not flip to half-open")
	}
	if b.allow(node) {
		t.Fatal("second request admitted while the probe is in flight")
	}

	// A failed probe re-opens for another full cooldown.
	b.record(node, outcomeFailure)
	if b.stateOf(node) != breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.allow(node) {
		t.Fatal("re-opened breaker admitted a request")
	}

	// Next probe succeeds: closed, traffic flows.
	now = now.Add(2 * time.Minute)
	if !b.allow(node) {
		t.Fatal("second probe refused")
	}
	b.record(node, outcomeSuccess)
	if b.stateOf(node) != breakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}
	if !b.allow(node) || !b.allow(node) {
		t.Error("closed breaker limits traffic")
	}
	if b.closed.Load() != 1 || b.opened.Load() != 2 || b.halfOpen.Load() != 2 {
		t.Errorf("transitions open=%d half=%d closed=%d, want 2/2/1",
			b.opened.Load(), b.halfOpen.Load(), b.closed.Load())
	}
}

func TestBreakerCancelledProbeReleasesSlot(t *testing.T) {
	b := newBreaker(1, time.Minute)
	node := "http://backend-1"
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	b.allow(node)
	b.record(node, outcomeFailure)
	now = now.Add(2 * time.Minute)
	if !b.allow(node) {
		t.Fatal("probe refused")
	}
	// The probe's caller went away: outcome unknown.  The slot must free
	// so the *next* request can probe — and the circuit must not re-open.
	b.record(node, outcomeUnknown)
	if b.stateOf(node) != breakerHalfOpen {
		t.Fatal("unknown outcome changed the breaker state")
	}
	if !b.allow(node) {
		t.Fatal("released probe slot not re-admitted")
	}
}

func TestClassifyDispatch(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want dispatchOutcome
	}{
		{"success", bg, nil, outcomeSuccess},
		{"transport failure", bg, errors.New("connection refused"), outcomeFailure},
		{"5xx", bg, &BackendError{Status: 503}, outcomeFailure},
		{"attempt timeout with live caller", bg, fmt.Errorf("wrap: %w", context.DeadlineExceeded), outcomeFailure},
		{"4xx", bg, &BackendError{Status: 400}, outcomeUnknown},
		{"caller gone", cancelled, errors.New("anything"), outcomeUnknown},
		{"stray cancel with live caller", bg, fmt.Errorf("wrap: %w", context.Canceled), outcomeUnknown},
	}
	for _, c := range cases {
		if got := classifyDispatch(c.ctx, c.err); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// homedOn returns benchmarks whose ring-walk home is node, in benchmark
// order — so breaker tests pick dispatches that deterministically
// contact (or avoid) a chosen backend.
func homedOn(t *testing.T, s *Scheduler, node string) []string {
	t.Helper()
	var out []string
	for _, bench := range frontendsim.Benchmarks() {
		key, err := s.eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if s.Ring().Sequence(key)[0] == node {
			out = append(out, bench)
		}
	}
	return out
}

// TestSchedulerBreakerDivertsRingWalk runs a real two-backend ring where
// one backend always 500s: after threshold failures its circuit opens
// and subsequent dispatches homed on it divert to the healthy node
// without contacting it.
func TestSchedulerBreakerDivertsRingWalk(t *testing.T) {
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		badHits.Add(1)
		http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := newBackends(t, 1)[0]

	eng := frontendsim.New(testOpts()...)
	sched, err := New(eng, Config{
		Backends:         []string{bad.URL, good.URL()},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no probe during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	onBad := homedOn(t, sched, bad.URL)
	if len(onBad) < 4 {
		t.Fatalf("only %d benchmarks homed on the bad backend; need 4", len(onBad))
	}

	// Two dispatches homed on the bad backend: each fails there, fails
	// over to the healthy node, and succeeds.  The second failure trips
	// the breaker.
	for _, bench := range onBad[:2] {
		if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: bench}); err != nil {
			t.Fatalf("dispatch %s: %v", bench, err)
		}
	}
	if got := sched.brk.stateOf(bad.URL); got != breakerOpen {
		t.Fatalf("bad backend breaker state = %v, want open", got)
	}
	hitsWhenOpen := badHits.Load()

	// Further dispatches homed on the bad backend divert around the open
	// circuit: they succeed without contacting it.
	for _, bench := range onBad[2:4] {
		if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: bench}); err != nil {
			t.Fatalf("dispatch %s after open: %v", bench, err)
		}
	}
	if got := badHits.Load(); got != hitsWhenOpen {
		t.Errorf("open circuit still passed %d requests to the bad backend", got-hitsWhenOpen)
	}
	if sched.Stats().BreakerSkips == 0 {
		t.Error("no breaker skips recorded")
	}
}

// TestSchedulerBackoffSpacing pins the retry backoff schedule under a
// stubbed clock: attempt n's wait is drawn from [0.5, 1.5)·base·2ⁿ⁻¹.
func TestSchedulerBackoffSpacing(t *testing.T) {
	// Three backends that always fail → a full ring walk with two
	// retries, each preceded by one recorded backoff.
	var nodes []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		}))
		defer srv.Close()
		nodes = append(nodes, srv.URL)
	}

	const base = 10 * time.Millisecond
	eng := frontendsim.New(testOpts()...)
	sched, err := New(eng, Config{Backends: nodes, RetryBackoff: base})
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	sched.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d) // stubbed clock: record, don't wait
		return nil
	}

	_, err = sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: "gzip"})
	var ee *ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if len(slept) != 2 {
		t.Fatalf("recorded %d backoffs (%v), want 2", len(slept), slept)
	}
	for i, d := range slept {
		scale := time.Duration(1) << i // attempt 1 → 1×base, attempt 2 → 2×base
		lo, hi := base*scale/2, base*scale*3/2
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i+1, d, lo, hi)
		}
	}
	if got := sched.Stats().Backoffs; got != 2 {
		t.Errorf("Backoffs = %d, want 2", got)
	}
}

// TestWalkSkipsOpenNodesWithoutBackoff pins what a breaker skip costs:
// when the only attempt fails and every remaining node's circuit is
// open, the walk ends at once — no backoff is slept before finding
// nothing left to try.
func TestWalkSkipsOpenNodesWithoutBackoff(t *testing.T) {
	var nodes []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		}))
		defer srv.Close()
		nodes = append(nodes, srv.URL)
	}
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends:         nodes,
		RetryBackoff:     10 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.sleep = func(context.Context, time.Duration) error { return nil }
	req, _ := homedRequest(t, sched, nodes[0])
	sched.brk.record(nodes[1], outcomeFailure) // the failover node is open

	_, err = sched.Dispatch(context.Background(), req)
	var ee *ExhaustedError
	if !errors.As(err, &ee) || ee.Attempts != 1 {
		t.Fatalf("err = %v, want ExhaustedError after 1 attempt", err)
	}
	st := sched.Stats()
	if st.Backoffs != 0 || st.Retried != 0 || st.BreakerSkips != 1 {
		t.Errorf("stats = %+v, want 0 backoffs, 0 retries, 1 breaker skip", st)
	}
}

// TestSchedulerReportDispatch asserts the passive membership feed: every
// attempt that says something about a backend — success or failure — is
// reported with that verdict.
func TestSchedulerReportDispatch(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := newBackends(t, 1)[0]

	var mu struct {
		fails, oks map[string]int
	}
	mu.fails, mu.oks = map[string]int{}, map[string]int{}
	var reportMu sync.Mutex
	eng := frontendsim.New(testOpts()...)
	sched, err := New(eng, Config{
		Backends: []string{bad.URL, good.URL()},
		ReportDispatch: func(node string, err error) {
			reportMu.Lock()
			defer reportMu.Unlock()
			if err != nil {
				mu.fails[node]++
			} else {
				mu.oks[node]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	onBad := homedOn(t, sched, bad.URL)
	if len(onBad) == 0 {
		t.Fatal("no benchmark homed on the bad backend")
	}
	if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: onBad[0]}); err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	reportMu.Lock()
	defer reportMu.Unlock()
	if mu.fails[bad.URL] != 1 {
		t.Errorf("bad backend failure reports = %d, want 1", mu.fails[bad.URL])
	}
	if mu.oks[good.URL()] != 1 {
		t.Errorf("good backend success reports = %d, want 1", mu.oks[good.URL()])
	}
}

// TestSchedulerPartialResults exercises graceful degradation through a
// real ring: one benchmark is refused by every backend, yet the suite
// answers with per-shard errors, a reduced aggregate, and the
// PARTIAL-ERROR X-Cache marker.
func TestSchedulerPartialResults(t *testing.T) {
	// Each ring node proxies to a real simd backend but 500s any request
	// naming the doomed benchmark — on every node, so its ring walk
	// exhausts.
	const doomed = "mcf"
	backends := make([]string, 2)
	for i := range backends {
		inner := newBackends(t, 1)[0]
		filter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, `{"error":"read"}`, http.StatusBadRequest)
				return
			}
			if bytes.Contains(body, []byte(`"`+doomed+`"`)) {
				http.Error(w, `{"error":"injected: shard down"}`, http.StatusInternalServerError)
				return
			}
			resp, err := http.Post(inner.URL()+r.URL.Path, "application/json", bytes.NewReader(body))
			if err != nil {
				http.Error(w, `{"error":"proxy"}`, http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		}))
		t.Cleanup(filter.Close)
		backends[i] = filter.URL
	}

	eng := frontendsim.New(testOpts()...)
	sched, err := New(eng, Config{Backends: backends, PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"gzip", doomed, "swim"}}
	res, served, err := sched.RunSuiteServed(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if served.Failed != 1 || served.XCache() != "PARTIAL-ERROR" {
		t.Errorf("served = %+v (XCache %s), want 1 failure / PARTIAL-ERROR", served, served.XCache())
	}
	if len(res.Errors) != 1 || res.Errors[0].Benchmark != doomed {
		t.Fatalf("Errors = %+v, want one %s entry", res.Errors, doomed)
	}
	if res.Results[1] != nil {
		t.Error("doomed shard has a result")
	}
	if res.Results[0] == nil || res.Results[2] == nil {
		t.Error("surviving shards missing results")
	}
	if res.Aggregate.Benchmarks != 2 {
		t.Errorf("aggregate over %d benchmarks, want 2", res.Aggregate.Benchmarks)
	}
}
