package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

func newCachedScheduler(t *testing.T, backends []string) *Scheduler {
	t.Helper()
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends: backends,
		Cache:    resultstore.NewMemory(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestSchedulerCacheAnswersRepeatedSuite is the frontend-tier
// acceptance test: a repeated identical suite is answered entirely from
// the scheduler's response store — the stub backend sees zero
// additional requests.
func TestSchedulerCacheAnswersRepeatedSuite(t *testing.T) {
	stub, requests := cannedBackend(t, nil)
	sched := newCachedScheduler(t, []string{stub.URL})
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"gzip", "mcf"}}
	ctx := context.Background()

	first, served, err := sched.RunSuiteServed(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if requests.Load() != 2 {
		t.Fatalf("first run dispatched %d backend requests, want 2", requests.Load())
	}
	if served.Dispatched != 2 || served.Cached != 0 {
		t.Fatalf("first run served = %+v, want 2 dispatched", served)
	}
	if got := served.XCache(); got != "MISS" {
		t.Errorf("first run XCache = %q, want MISS", got)
	}

	second, served, err := sched.RunSuiteServed(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if requests.Load() != 2 {
		t.Errorf("repeated suite dispatched %d more backend requests, want 0",
			requests.Load()-2)
	}
	if served.Cached != 2 || served.Dispatched != 0 {
		t.Errorf("repeated run served = %+v, want 2 cached", served)
	}
	if got := served.XCache(); got != "HIT" {
		t.Errorf("repeated run XCache = %q, want HIT", got)
	}
	// The cached answer is byte-identical to the dispatched one.
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Error("cached suite response differs from the dispatched one")
	}
	st := sched.Stats()
	if st.Dispatched != 2 || st.CacheHits != 2 {
		t.Errorf("stats = %+v, want 2 dispatched / 2 cache hits", st)
	}

	// A superset suite re-dispatches only the new key.
	_, served, err = sched.RunSuiteServed(ctx, frontendsim.SuiteRequest{
		Benchmarks: []string{"gzip", "mcf", "crafty"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if requests.Load() != 3 {
		t.Errorf("superset suite dispatched %d total backend requests, want 3", requests.Load())
	}
	if served.Cached != 2 || served.Dispatched != 1 {
		t.Errorf("superset run served = %+v, want 2 cached + 1 dispatched", served)
	}
	if got := served.XCache(); got != "PARTIAL" {
		t.Errorf("superset run XCache = %q, want PARTIAL", got)
	}
}

// TestSchedulerCacheSurvivesDeadBackends pins the failover story at its
// strongest: once a suite is cached at the scheduler tier, it is
// answered even with every backend gone.
func TestSchedulerCacheSurvivesDeadBackends(t *testing.T) {
	stub, _ := cannedBackend(t, nil)
	sched := newCachedScheduler(t, []string{stub.URL})
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"gzip"}}
	ctx := context.Background()

	if _, err := sched.RunSuite(ctx, suite); err != nil {
		t.Fatal(err)
	}
	stub.Close()
	res, served, err := sched.RunSuiteServed(ctx, suite)
	if err != nil {
		t.Fatalf("cached suite failed after backend death: %v", err)
	}
	if served.Cached != 1 || res.Results[0] == nil {
		t.Errorf("served = %+v, want 1 cached shard", served)
	}
	// An uncached request still fails — the cache does not mask real
	// dispatch errors.
	if _, err := sched.Dispatch(ctx, frontendsim.Request{Benchmark: "mcf"}); err == nil {
		t.Error("uncached dispatch to a dead ring succeeded")
	}
}

// TestSchedulerServerXCacheHeaders drives the HTTP layer: /v1/suites
// carries X-Cache MISS then HIT across a repeat, /v1/simulations
// reports per-request sources, and /v1/cache/stats exposes the tier.
func TestSchedulerServerXCacheHeaders(t *testing.T) {
	stub, requests := cannedBackend(t, nil)
	sched := newCachedScheduler(t, []string{stub.URL})
	srv := NewServer(sched)

	postSuite := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/suites",
			strings.NewReader(`{"benchmarks":["gzip","mcf"],"request":{}}`))
		srv.ServeHTTP(w, r)
		return w
	}
	first := postSuite()
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first suite: status %d, X-Cache %q, want 200 MISS",
			first.Code, first.Header().Get("X-Cache"))
	}
	second := postSuite()
	if second.Header().Get("X-Cache") != "HIT" {
		t.Errorf("repeated suite X-Cache = %q, want HIT", second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached suite body differs")
	}
	if requests.Load() != 2 {
		t.Errorf("backend saw %d requests, want 2 (second suite fully cached)", requests.Load())
	}

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulations",
		strings.NewReader(`{"benchmark":"gzip"}`)))
	if w.Header().Get("X-Cache") != "HIT" {
		t.Errorf("cached simulation X-Cache = %q, want HIT", w.Header().Get("X-Cache"))
	}

	stats := httptest.NewRecorder()
	srv.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	var st struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Tiers   []resultstore.TierStats
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Hits != 3 {
		t.Errorf("cache stats = %+v, want 2 entries / 3 hits", st)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Tier != "memory" {
		t.Errorf("tiers = %+v, want one memory tier", st.Tiers)
	}
}

// TestSchedulerCoalescedCacheHitCountsAsCached pins the accounting for
// concurrent callers of a stored key: each is served by the cache (no
// backend contacted on its behalf), so each reports SourceCached and
// none counts as coalesced — a fully cache-served suite says HIT even
// when two identical suites race.
func TestSchedulerCoalescedCacheHitCountsAsCached(t *testing.T) {
	stub, requests := cannedBackend(t, nil)
	sched := newCachedScheduler(t, []string{stub.URL})
	ctx := context.Background()
	req := frontendsim.Request{Benchmark: "gzip"}

	if _, err := sched.Dispatch(ctx, req); err != nil { // warm the store
		t.Fatal(err)
	}
	const callers = 6
	var wg sync.WaitGroup
	sources := make([]Source, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, src, err := sched.DispatchSource(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			sources[i] = src
		}(i)
	}
	wg.Wait()
	for i, src := range sources {
		if src != SourceCached {
			t.Errorf("caller %d source = %v, want SourceCached", i, src)
		}
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("backend saw %d requests, want 1 (warming only)", n)
	}
	if st := sched.Stats(); st.CacheHits != callers || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want %d cache hits / 0 coalesced", st, callers)
	}
}

// TestSchedulerNoCacheUnchanged pins the default: without a configured
// store the scheduler re-dispatches repeats and reports MISS.
func TestSchedulerNoCacheUnchanged(t *testing.T) {
	stub, requests := cannedBackend(t, nil)
	sched := newScheduler(t, []string{stub.URL})
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"gzip"}}
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		_, served, err := sched.RunSuiteServed(ctx, suite)
		if err != nil {
			t.Fatal(err)
		}
		if served.Dispatched != 1 || served.XCache() != "MISS" {
			t.Errorf("run %d served = %+v (XCache %s), want 1 dispatched MISS",
				i, served, served.XCache())
		}
	}
	if requests.Load() != 2 {
		t.Errorf("backend saw %d requests, want 2 (no cache tier)", requests.Load())
	}
	if st := sched.Stats(); st.CacheHits != 0 {
		t.Errorf("cacheless scheduler reports %d cache hits", st.CacheHits)
	}
	if got := sched.CacheStats(); got != nil {
		t.Errorf("CacheStats = %+v, want nil", got)
	}
}

// TestSchedulerCachedSuiteByteIdentical runs a real 3-benchmark suite
// through real backends twice — the second run entirely from the
// scheduler store — and asserts both responses are byte-identical to
// the serial in-process reference.
func TestSchedulerCachedSuiteByteIdentical(t *testing.T) {
	backends := newBackends(t, 2)
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends: urls(backends),
		Cache:    resultstore.NewMemory(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	dispatched, _, err := sched.RunSuiteServed(ctx, tenBenchSuite())
	if err != nil {
		t.Fatal(err)
	}
	cached, served, err := sched.RunSuiteServed(ctx, tenBenchSuite())
	if err != nil {
		t.Fatal(err)
	}
	if served.XCache() != "HIT" {
		t.Fatalf("second run XCache = %q, want HIT (served: %+v)", served.XCache(), served)
	}
	want := serialReferenceJSON(t)
	for name, res := range map[string]*frontendsim.SuiteResult{"dispatched": dispatched, "cached": cached} {
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s suite response is not byte-identical to the serial reference", name)
		}
	}
}

// teeWriter copies a response body as the handler writes it.
type teeWriter struct {
	http.ResponseWriter
	buf *bytes.Buffer
}

func (w teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// postRaw posts body to url and returns the X-Cache header and the raw
// response body; a failed request is reported and returns empty values.
// Safe to call from any goroutine.
func postRaw(t *testing.T, url, body string) (string, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return "", nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: status %d, err %v: %s", url, resp.StatusCode, err, raw)
		return "", nil
	}
	return resp.Header.Get("X-Cache"), raw
}

// TestSharedStoreBytesIdenticalAcrossTiers runs one simd replica and one
// scheduler over one shared store: both tiers cache a key under the
// same canonical name, so either one's write decides what the other
// serves.  Every body for the key — simd's own MISS, the scheduler's
// MISS, COALESCED and HIT, and simd's HIT after the scheduler's
// write-through — must be the same bytes.
func TestSharedStoreBytesIdenticalAcrossTiers(t *testing.T) {
	shared := resultstore.NewMemory(16)
	t.Cleanup(func() { shared.Close() })
	inner := simd.NewServerWithStore(frontendsim.New(testOpts()...), shared)
	gate := make(chan struct{})
	var mu sync.Mutex
	var simdMiss []byte
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate // hold the first dispatch until the second caller has joined it
		var buf bytes.Buffer
		inner.ServeHTTP(teeWriter{w, &buf}, r)
		if w.Header().Get("X-Cache") == "MISS" {
			mu.Lock()
			simdMiss = buf.Bytes()
			mu.Unlock()
		}
	}))
	t.Cleanup(backend.Close)
	sched, err := New(frontendsim.New(testOpts()...), Config{Backends: []string{backend.URL}, Cache: shared})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewServer(sched))
	t.Cleanup(front.Close)

	const req = `{"benchmark":"gzip"}`
	bodies := map[string][]byte{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, body := postRaw(t, front.URL+"/v1/simulations", req)
			mu.Lock()
			bodies["scheduler "+src] = body
			mu.Unlock()
		}()
	}
	// Give the second caller time to join the single flight, then let
	// the one backend run complete.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	wg.Wait()
	src, body := postRaw(t, front.URL+"/v1/simulations", req)
	bodies["scheduler "+src] = body
	src, body = postRaw(t, backend.URL+"/v1/simulations", req)
	bodies["simd "+src] = body

	if len(simdMiss) == 0 {
		t.Fatal("simd never answered a MISS")
	}
	for _, name := range []string{"scheduler MISS", "scheduler COALESCED", "scheduler HIT", "simd HIT"} {
		got, ok := bodies[name]
		if !ok {
			t.Errorf("no %s response (got %d distinct sources)", name, len(bodies))
			continue
		}
		if !bytes.Equal(got, simdMiss) {
			t.Errorf("%s body (%d bytes) differs from simd's MISS body (%d bytes)", name, len(got), len(simdMiss))
		}
	}
}
