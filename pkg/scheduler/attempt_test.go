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
	"repro/pkg/membership"
)

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
		{"422 simulator fault", bg, &BackendError{Status: 422}, outcomeUnknown},
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
// order — so tests pick dispatches that deterministically contact (or
// avoid) a chosen backend.
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

// newPassiveFleet builds a scheduler over cfg.Backends with a membership
// registry wired as simsched wires it — dispatch verdicts feed
// ReportDispatch, routable-set changes swap the ring — but never
// started, so no probe round runs: every quarantine is dispatch-driven.
func newPassiveFleet(t *testing.T, cfg Config, quarantineAfter int) (*Scheduler, *membership.Registry) {
	t.Helper()
	var members *membership.Registry
	cfg.ReportDispatch = func(node string, err error) { members.ReportDispatch(node, err) }
	sched, err := New(frontendsim.New(testOpts()...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	members, err = membership.New(membership.Config{
		QuarantineAfter: quarantineAfter,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
	}, cfg.Backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(members.Close)
	return sched, members
}

// TestPassiveQuarantineDivertsRingWalk runs a real two-backend ring where
// one backend always 500s, under a registry fed only by dispatch
// verdicts: after threshold failures the registry quarantines it, the
// ring drops it, and later dispatches homed on it go straight to the
// healthy node — without contacting the dead one, retrying or backing
// off.
func TestPassiveQuarantineDivertsRingWalk(t *testing.T) {
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		badHits.Add(1)
		http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := newBackends(t, 1)[0]

	sched, members := newPassiveFleet(t, Config{
		Backends:     []string{bad.URL, good.URL()},
		RetryBackoff: time.Millisecond,
	}, 2)
	sched.sleep = func(context.Context, time.Duration) error { return nil }
	onBad := homedOn(t, sched, bad.URL)
	if len(onBad) < 4 {
		t.Fatalf("only %d benchmarks homed on the bad backend; need 4", len(onBad))
	}

	// Two dispatches homed on the bad backend: each fails there, fails
	// over to the healthy node, and succeeds.  The second failure
	// quarantines the bad backend.
	for _, bench := range onBad[:2] {
		if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: bench}); err != nil {
			t.Fatalf("dispatch %s: %v", bench, err)
		}
	}
	if got := members.Active(); len(got) != 1 || got[0] != good.URL() {
		t.Fatalf("active members = %v, want only the healthy backend", got)
	}
	if st := members.Stats(); st.Probes != 0 || st.Quarantines != 1 {
		t.Fatalf("membership stats = %+v, want 1 quarantine and no probe", st)
	}
	hitsWhenOut, before := badHits.Load(), sched.Stats()

	// Further dispatches homed on the bad backend succeed without
	// contacting it, at the cost of no retry and no backoff.
	for _, bench := range onBad[2:4] {
		if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: bench}); err != nil {
			t.Fatalf("dispatch %s after quarantine: %v", bench, err)
		}
	}
	if got := badHits.Load(); got != hitsWhenOut {
		t.Errorf("quarantined backend still received %d requests", got-hitsWhenOut)
	}
	if after := sched.Stats(); after.Retried != before.Retried || after.Backoffs != before.Backoffs {
		t.Errorf("dispatches after quarantine cost %d retries and %d backoffs, want 0 and 0",
			after.Retried-before.Retried, after.Backoffs-before.Backoffs)
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

// TestWalkSkipsQuarantinedNodeWithoutBackoff pins what a quarantined node
// costs the walk: when the only attempt fails and the remaining node was
// quarantined by a dispatch verdict, the walk ends at once — the ring no
// longer holds that node, so no backoff is slept before finding nothing
// left to try.
func TestWalkSkipsQuarantinedNodeWithoutBackoff(t *testing.T) {
	var nodes []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		}))
		defer srv.Close()
		nodes = append(nodes, srv.URL)
	}
	sched, members := newPassiveFleet(t, Config{
		Backends:     nodes,
		RetryBackoff: 10 * time.Millisecond,
	}, 1)
	sched.sleep = func(context.Context, time.Duration) error { return nil }
	req, _ := homedRequest(t, sched, nodes[0])
	members.ReportDispatch(nodes[1], errors.New("injected")) // the failover node is quarantined

	_, err := sched.Dispatch(context.Background(), req)
	var ee *ExhaustedError
	if !errors.As(err, &ee) || ee.Attempts != 1 {
		t.Fatalf("err = %v, want ExhaustedError after 1 attempt", err)
	}
	if st := sched.Stats(); st.Backoffs != 0 || st.Retried != 0 {
		t.Errorf("stats = %+v, want 0 backoffs, 0 retries", st)
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
