package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
)

// testOpts are the reduced simulation lengths shared by every engine in
// these tests — scheduler, backends and the serial reference must agree
// for canonical keys and results to line up.
func testOpts() []frontendsim.Option {
	return []frontendsim.Option{
		frontendsim.WithWarmupOps(12_000),
		frontendsim.WithMeasureOps(25_000),
	}
}

// serialReference computes the serial in-process reference for
// tenBenchSuite once — it is the byte-identity baseline of three suite
// tests, and simulations are expensive under -race.
var (
	serialOnce sync.Once
	serialJSON []byte
	serialErr  error
)

func serialReferenceJSON(t *testing.T) []byte {
	t.Helper()
	serialOnce.Do(func() {
		res, err := frontendsim.New(append(testOpts(), frontendsim.WithWorkers(1))...).
			RunSuite(context.Background(), tenBenchSuite())
		if err != nil {
			serialErr = err
			return
		}
		serialJSON, serialErr = json.Marshal(res)
	})
	if serialErr != nil {
		t.Fatal(serialErr)
	}
	return serialJSON
}

// backend is one in-process simd instance with a request counter.
type backend struct {
	srv      *httptest.Server
	requests atomic.Int64
}

func (b *backend) URL() string { return b.srv.URL }

// newBackends spins n in-process simd servers (each with its own engine
// and cache) and registers their shutdown with t.
func newBackends(t *testing.T, n int) []*backend {
	t.Helper()
	out := make([]*backend, n)
	for i := range out {
		b := &backend{}
		inner := simd.NewServer(frontendsim.New(testOpts()...), 64)
		b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b.requests.Add(1)
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(b.srv.Close)
		out[i] = b
	}
	return out
}

func urls(backends []*backend) []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.URL()
	}
	return out
}

func newScheduler(t *testing.T, backends []string) *Scheduler {
	t.Helper()
	sched, err := New(frontendsim.New(testOpts()...), Config{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// tenBenchSuite is the 10-benchmark integration suite.
func tenBenchSuite() frontendsim.SuiteRequest {
	return frontendsim.SuiteRequest{
		Benchmarks: frontendsim.Benchmarks()[:10],
		Request:    frontendsim.Request{BankHopping: true},
	}
}

// TestSchedulerMatchesSerialRunSuite is the multi-backend integration
// test: a 10-benchmark suite through real simd backends must be
// byte-identical to a serial in-process Engine.RunSuite, with every
// request landing on its home backend and the shard assignment stable
// across a scheduler restart with a reordered backend list.  It runs
// over a 3-replica fleet and over one replica, the single-node mode.
// Both also pin the blocking HTTP body, the streamed aggregate, a suite
// with duplicate keys and a clean PartialResults run to the serial
// bytes.
func TestSchedulerMatchesSerialRunSuite(t *testing.T) {
	names := tenBenchSuite().Benchmarks
	dupSuite := frontendsim.SuiteRequest{
		Benchmarks: []string{names[0], names[3], names[0], names[6], names[3]},
		Request:    tenBenchSuite().Request,
	}
	dupRes, err := frontendsim.New(append(testOpts(), frontendsim.WithWorkers(1))...).
		RunSuite(context.Background(), dupSuite)
	if err != nil {
		t.Fatal(err)
	}
	dupWant, err := json.Marshal(dupRes)
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{3, 1} {
		t.Run(fmt.Sprintf("%d-replica", replicas), func(t *testing.T) {
			matchesSerialRunSuite(t, replicas, dupSuite, dupWant)
		})
	}
}

func matchesSerialRunSuite(t *testing.T, replicas int, dupSuite frontendsim.SuiteRequest, dupWant []byte) {
	names := tenBenchSuite().Benchmarks
	backends := newBackends(t, replicas)
	sched := newScheduler(t, urls(backends))
	want := serialReferenceJSON(t)

	distributed, err := sched.RunSuite(context.Background(), tenBenchSuite())
	if err != nil {
		t.Fatal(err)
	}
	distJSON, err := json.Marshal(distributed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(distJSON, want) {
		t.Error("scheduler suite is not byte-identical to the serial run")
	}

	// Every dispatch landed on the key's home backend, exactly once.
	homes := map[string]int64{}
	for _, bench := range tenBenchSuite().Benchmarks {
		key, err := sched.eng.RequestKey(frontendsim.Request{Benchmark: bench, BankHopping: true})
		if err != nil {
			t.Fatal(err)
		}
		homes[sched.Ring().Node(key)]++
	}
	var spread int
	for _, b := range backends {
		if want := homes[b.URL()]; b.requests.Load() != want {
			t.Errorf("backend %s served %d requests, ring assigns it %d keys",
				b.URL(), b.requests.Load(), want)
		}
		if homes[b.URL()] > 0 {
			spread++
		}
	}
	if spread < min(2, replicas) {
		t.Errorf("suite sharded onto %d backend(s), want at least 2", spread)
	}
	if st := sched.Stats(); st.Dispatched != 10 || st.Retried != 0 {
		t.Errorf("stats = %+v, want 10 dispatched, 0 retried", st)
	}

	// The HTTP spellings of the same suite: the blocking body and the
	// streamed terminal aggregate carry the serial bytes.
	srv := NewServer(sched)
	if body := postSuiteBody(t, srv, "/v1/suites", tenBenchSuite()); !bytes.Equal(body, append(want, '\n')) {
		t.Error("blocking /v1/suites body is not byte-identical to the serial run")
	}
	lines := bytes.Split(bytes.TrimSuffix(postSuiteBody(t, srv, "/v1/suites/stream", tenBenchSuite()), []byte("\n")), []byte("\n"))
	var agg struct {
		Type  string          `json:"type"`
		Suite json.RawMessage `json:"suite"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Type != "aggregate" || !bytes.Equal(agg.Suite, want) {
		t.Errorf("streamed terminal line (type %q) does not carry the serial suite bytes", agg.Type)
	}
	if len(lines) != 11 {
		t.Errorf("stream has %d lines, want 10 shard lines and the aggregate", len(lines))
	}

	// Duplicate keys dispatch once each and fill every position.
	before := sched.Stats().Dispatched
	dup, err := sched.RunSuite(context.Background(), dupSuite)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(dup); err != nil || !bytes.Equal(got, dupWant) {
		t.Errorf("duplicate-key suite is not byte-identical to the serial run (err %v)", err)
	}
	if n := sched.Stats().Dispatched - before; n != 3 {
		t.Errorf("duplicate-key suite dispatched %d shards for 3 unique keys", n)
	}
	// The suite's shards warmed their home replica's store.
	single := frontendsim.Request{Benchmark: names[0], BankHopping: true}
	key, err := sched.eng.RequestKey(single)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	if xc, _ := postRaw(t, sched.Ring().Node(key)+"/v1/simulations", string(body)); xc != "HIT" {
		t.Errorf("home replica answered a suite entry with X-Cache %q, want HIT", xc)
	}

	// A PartialResults run with every shard served is the default run.
	partial, err := New(frontendsim.New(testOpts()...), Config{Backends: urls(backends), PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	NewServer(partial).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/suites", bytes.NewReader(suiteJSON(t, tenBenchSuite()))))
	if xc := w.Header().Get("X-Cache"); w.Code != http.StatusOK || xc == "PARTIAL-ERROR" {
		t.Errorf("clean partial-results run: status %d, X-Cache %q", w.Code, xc)
	}
	if !bytes.Equal(w.Body.Bytes(), append(want, '\n')) {
		t.Error("clean partial-results body is not byte-identical to the serial run")
	}

	// Restart: a scheduler rebuilt over the same backends in a different
	// order assigns every key identically.
	reordered := urls(backends)
	slices.Reverse(reordered)
	restarted := newScheduler(t, reordered)
	for _, bench := range frontendsim.Benchmarks() {
		key, err := sched.eng.RequestKey(frontendsim.Request{Benchmark: bench, BankHopping: true})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := sched.Ring().Node(key), restarted.Ring().Node(key); a != b {
			t.Errorf("benchmark %s re-homed across restart: %s -> %s", bench, a, b)
		}
	}
}

func suiteJSON(t *testing.T, suite frontendsim.SuiteRequest) []byte {
	t.Helper()
	body, err := json.Marshal(suite)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postSuiteBody posts suite to path on srv and returns the 200 body.
func postSuiteBody(t *testing.T, srv http.Handler, path string, suite frontendsim.SuiteRequest) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(suiteJSON(t, suite))))
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d, body %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// TestSchedulerFailsOverDeadBackend kills one backend and asserts every
// benchmark it owned retries onto the next ring node, with the aggregate
// still byte-identical to serial — no duplicate, no missing benchmark.
func TestSchedulerFailsOverDeadBackend(t *testing.T) {
	backends := newBackends(t, 3)
	sched := newScheduler(t, urls(backends))

	// Find a backend that owns at least one of the suite's keys and kill
	// it before the suite runs.
	suite := tenBenchSuite()
	owned := map[string]int{}
	for _, bench := range suite.Benchmarks {
		key, err := sched.eng.RequestKey(frontendsim.Request{Benchmark: bench, BankHopping: true})
		if err != nil {
			t.Fatal(err)
		}
		owned[sched.Ring().Node(key)]++
	}
	var victim *backend
	for _, b := range backends {
		if owned[b.URL()] > 0 {
			victim = b
			break
		}
	}
	if victim == nil {
		t.Fatal("no backend owns any suite key")
	}
	victim.srv.Close()

	distributed, err := sched.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}

	// No missing and no duplicate benchmark: results are exactly the
	// suite, in order.
	for i, bench := range suite.Benchmarks {
		if distributed.Results[i] == nil || distributed.Results[i].Benchmark != bench {
			t.Fatalf("result %d is %v, want benchmark %s", i, distributed.Results[i], bench)
		}
	}
	distJSON, _ := json.Marshal(distributed)
	if !bytes.Equal(distJSON, serialReferenceJSON(t)) {
		t.Error("failed-over suite is not byte-identical to the serial run")
	}
	if st := sched.Stats(); st.Retried < uint64(owned[victim.URL()]) {
		t.Errorf("stats = %+v, want at least %d retried (victim owned that many keys)",
			st, owned[victim.URL()])
	}
}

// TestSchedulerFailsOverMidSuite lets one backend serve its first
// request and then start failing, mid-suite.
func TestSchedulerFailsOverMidSuite(t *testing.T) {
	healthy := newBackends(t, 1)[0]

	// The flaky backend serves exactly one request, then returns 500s.
	var served atomic.Int64
	inner := simd.NewServer(frontendsim.New(testOpts()...), 64)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": "backend going down"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	sched := newScheduler(t, []string{healthy.URL(), flaky.URL})
	suite := tenBenchSuite()
	distributed, err := sched.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	for i, bench := range suite.Benchmarks {
		if distributed.Results[i] == nil || distributed.Results[i].Benchmark != bench {
			t.Fatalf("result %d is %v, want benchmark %s", i, distributed.Results[i], bench)
		}
	}
	distJSON, _ := json.Marshal(distributed)
	if !bytes.Equal(distJSON, serialReferenceJSON(t)) {
		t.Error("mid-suite failover result is not byte-identical to the serial run")
	}
}

// TestSchedulerRequestErrorDoesNotRetry asserts request errors (4xx)
// abort the ring walk: every backend would refuse the same request.
func TestSchedulerRequestErrorDoesNotRetry(t *testing.T) {
	var total atomic.Int64
	refusing := func() *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			total.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "computer says no"})
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	sched := newScheduler(t, []string{refusing().URL, refusing().URL, refusing().URL})

	_, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: "gzip"})
	var be *BackendError
	if !errors.As(err, &be) || be.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want a 400 BackendError", err)
	}
	if n := total.Load(); n != 1 {
		t.Errorf("request error contacted %d backends, want 1 (no retry)", n)
	}
	if st := sched.Stats(); st.Retried != 0 {
		t.Errorf("request error was retried: %+v", st)
	}

	// An unknown benchmark fails locally, before any dispatch.
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{
		Benchmarks: []string{"nosuch"},
	}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if n := total.Load(); n != 1 {
		t.Errorf("invalid suite reached a backend (%d total requests)", n)
	}
}

// TestSchedulerCancellationPropagates cancels a suite mid-flight and
// asserts the in-flight backend request's own context is cancelled too
// (through the single-flight layer's reference counting).
func TestSchedulerCancellationPropagates(t *testing.T) {
	var once sync.Once
	started := make(chan struct{})
	unblocked := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for a client
		// abort once the request has been consumed.
		io.Copy(io.Discard, r.Body)
		once.Do(func() { close(started) })
		<-r.Context().Done() // block until the scheduler hangs up
		close(unblocked)
	}))
	defer stub.Close()

	sched := newScheduler(t, []string{stub.URL})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sched.RunSuite(ctx, frontendsim.SuiteRequest{
			Benchmarks: []string{"gzip"},
		})
		errc <- err
	}()

	<-started
	cancel()
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("backend request context not cancelled after suite cancellation")
	}
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunSuite error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunSuite did not return after cancellation")
	}
}

// cannedBackend returns a stub that answers every simulation with a
// fixed pre-marshalled result, plus its request counter — for tests of
// pure dispatch mechanics with no simulation cost.
func cannedBackend(t *testing.T, gate <-chan struct{}) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	body, err := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		requests.Add(1)
		if gate != nil {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

// TestSchedulerCoalescesConcurrentDispatches fires N identical
// concurrent dispatches and asserts exactly one backend call.
func TestSchedulerCoalescesConcurrentDispatches(t *testing.T) {
	gate := make(chan struct{})
	stub, requests := cannedBackend(t, gate)
	sched := newScheduler(t, []string{stub.URL})

	const callers = 6
	var wg sync.WaitGroup
	results := make([]*frontendsim.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: "gzip"})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Give every caller time to reach the single-flight group, then let
	// the one backend call complete.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := requests.Load(); n != 1 {
		t.Errorf("backend received %d requests for %d identical dispatches, want 1", n, callers)
	}
	for i, res := range results {
		if res == nil || res.Benchmark != "gzip" {
			t.Errorf("caller %d got %+v", i, res)
		}
	}
	if st := sched.Stats(); st.Coalesced != callers-1 {
		t.Errorf("stats = %+v, want %d coalesced", st, callers-1)
	}
}

// TestSchedulerDedupsDuplicateSuiteKeys asserts a suite containing the
// same benchmark several times dispatches each canonical key once.
func TestSchedulerDedupsDuplicateSuiteKeys(t *testing.T) {
	stub, requests := cannedBackend(t, nil)
	sched := newScheduler(t, []string{stub.URL})

	res, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{
		Benchmarks: []string{"gzip", "gzip", "mcf", "gzip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("backend received %d requests for 2 unique keys, want 2", n)
	}
	if len(res.Results) != 4 || res.Aggregate.Benchmarks != 4 {
		t.Errorf("suite shape %d results / %d aggregate benchmarks, want 4/4",
			len(res.Results), res.Aggregate.Benchmarks)
	}
	if res.Results[0] != res.Results[1] || res.Results[1] != res.Results[3] {
		t.Error("duplicate suite entries do not share the dispatched result")
	}
}
