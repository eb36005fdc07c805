package scheduler

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/frontendsim"
)

// TestFailedHomeFallsBackOncePerDispatch pins the accounting of the
// failure-fallback path: a home node that fails immediately is tried
// once per dispatch, and each dispatch falls back to the next ring node
// exactly once (Retried).
func TestFailedHomeFallsBackOncePerDispatch(t *testing.T) {
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "down"})
	}))
	t.Cleanup(dead.Close)
	body, err := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(healthy.Close)

	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends: []string{dead.URL, healthy.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := homedRequest(t, sched, dead.URL)
	for i := 0; i < 5; i++ {
		if _, err := sched.Dispatch(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := sched.Stats()
	if st.Retried != 5 {
		t.Errorf("stats = %+v, want 5 retried (one sequential fallback per dispatch)", st)
	}
	if n := deadHits.Load(); n != 5 {
		t.Errorf("dead backend saw %d requests, want 5", n)
	}
}

// TestServedXCacheSpellings is the spelling table of the suite-level
// X-Cache header, including the fixed all-coalesced case (previously
// misreported as MISS).
func TestServedXCacheSpellings(t *testing.T) {
	cases := []struct {
		served Served
		want   string
	}{
		{Served{}, "MISS"},
		{Served{Dispatched: 3}, "MISS"},
		{Served{Cached: 3}, "HIT"},
		{Served{Coalesced: 3}, "COALESCED"},
		{Served{Cached: 1, Coalesced: 2}, "COALESCED"},
		{Served{Cached: 1, Dispatched: 2}, "PARTIAL"},
		{Served{Coalesced: 1, Dispatched: 2}, "PARTIAL"},
		{Served{Cached: 1, Coalesced: 1, Dispatched: 1}, "PARTIAL"},
	}
	for _, tc := range cases {
		if got := tc.served.XCache(); got != tc.want {
			t.Errorf("%+v.XCache() = %q, want %q", tc.served, got, tc.want)
		}
	}
}

// TestAllCoalescedSuiteReportsCoalesced drives the fixed spelling
// through the real stack: a suite whose only shard joins another
// caller's in-flight dispatch reports X-Cache COALESCED, not MISS.
func TestAllCoalescedSuiteReportsCoalesced(t *testing.T) {
	gate := make(chan struct{})
	stub, requests := cannedBackend(t, gate)
	sched := newScheduler(t, []string{stub.URL})
	ctx := context.Background()

	// First caller owns the dispatch and blocks on the gate.
	firstStarted := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(firstStarted)
		if _, err := sched.Dispatch(ctx, frontendsim.Request{Benchmark: "gzip"}); err != nil {
			t.Error(err)
		}
	}()
	<-firstStarted
	time.Sleep(200 * time.Millisecond) // let the dispatch reach the flight group

	servedc := make(chan Served, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, served, err := sched.RunSuiteServed(ctx, frontendsim.SuiteRequest{Benchmarks: []string{"gzip"}})
		if err != nil {
			t.Error(err)
			return
		}
		servedc <- served
	}()
	time.Sleep(200 * time.Millisecond) // let the suite's shard join the flight
	close(gate)
	wg.Wait()

	served := <-servedc
	if served.Coalesced != 1 || served.Dispatched != 0 {
		t.Fatalf("served = %+v, want the single shard coalesced", served)
	}
	if got := served.XCache(); got != "COALESCED" {
		t.Errorf("all-coalesced suite XCache = %q, want COALESCED", got)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("backend saw %d requests, want 1", n)
	}
}

// TestFailedShareDoesNotCountCoalesced pins the counter fix: callers
// that join an in-flight dispatch which then FAILS inherited a
// failure, not saved work — the Coalesced stat must not move.
func TestFailedShareDoesNotCountCoalesced(t *testing.T) {
	gate := make(chan struct{})
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "boom"})
	}))
	t.Cleanup(failing.Close)
	sched := newScheduler(t, []string{failing.URL})

	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = sched.DispatchSource(context.Background(), frontendsim.Request{Benchmark: "gzip"})
		}(i)
	}
	time.Sleep(200 * time.Millisecond) // let every caller join the flight group
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d succeeded against an all-failing ring", i)
		}
	}
	if st := sched.Stats(); st.Coalesced != 0 {
		t.Errorf("stats = %+v: failed shares were counted as coalesced work saved", st)
	}
}

// TestInternalFaultFailsOver closes the loop on the simd statusFor fix:
// a backend surfacing an internal fault the way simd now does (500 +
// JSON envelope) must be failed over, where the old 400 classification
// aborted the walk.  internal/simd's TestInternalFaultIs500 pins the
// other half (faults actually are 500).
func TestInternalFaultFailsOver(t *testing.T) {
	faulty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		writeJSONError(w, http.StatusInternalServerError, "simd: decode cached result: invalid character")
	}))
	t.Cleanup(faulty.Close)
	body, err := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(healthy.Close)

	sched := newScheduler(t, []string{faulty.URL, healthy.URL})
	req, _ := homedRequest(t, sched, faulty.URL)
	res, err := sched.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatalf("internal backend fault did not fail over: %v", err)
	}
	if res.Benchmark != "gzip" {
		t.Errorf("result = %+v", res)
	}
	if st := sched.Stats(); st.Retried != 1 {
		t.Errorf("stats = %+v, want 1 retried", st)
	}

	// Sanity: the classification boundary itself — 500 retryable, 400 not.
	if !(&BackendError{Status: 500}).Retryable() {
		t.Error("500 BackendError not retryable")
	}
	if (&BackendError{Status: 400}).Retryable() {
		t.Error("400 BackendError retryable")
	}
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
