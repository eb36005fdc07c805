package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/frontendsim"
)

// TestCallerCancellationIsPermanent is the retry-classification
// regression test: when the caller's own context is cancelled mid
// attempt, the ring walk stops — no useless failover dispatch of a dead
// request to the remaining backends.
func TestCallerCancellationIsPermanent(t *testing.T) {
	started := make(chan struct{}, 1)
	var first, second atomic.Int64
	blocking := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		first.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	t.Cleanup(blocking.Close)
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		second.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(other.Close)

	// Force the blocking backend to be every key's first attempt by
	// making it the only node, then adding the observer as failover via
	// a 2-node ring where we pick a key homed on the blocker.
	sched := newScheduler(t, []string{blocking.URL, other.URL})
	req, key := homedRequest(t, sched, blocking.URL)
	_ = key

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sched.Dispatch(ctx, req)
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch did not return after cancellation")
	}
	if n := second.Load(); n != 0 {
		t.Errorf("cancelled dispatch failed over to %d other backend(s), want 0", n)
	}
	if st := sched.Stats(); st.Retried != 0 {
		t.Errorf("stats = %+v, want 0 retried for a caller-cancelled dispatch", st)
	}
}

// TestPerAttemptTimeoutStaysRetryable is the other half of the
// classification: a hung backend that trips the HTTP client's own
// timeout (a DeadlineExceeded NOT from the caller) must keep the walk
// going — that is the case failover exists for.
func TestPerAttemptTimeoutStaysRetryable(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hang until the client gives up
	}))
	t.Cleanup(hung.Close)
	body, _ := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	var healthyHits atomic.Int64
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		healthyHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(healthy.Close)

	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends:   []string{hung.URL, healthy.URL},
		HTTPClient: &http.Client{Timeout: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := homedRequest(t, sched, hung.URL)

	res, err := sched.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatalf("dispatch after per-attempt timeout = %v, want failover success", err)
	}
	if res.Benchmark != "gzip" {
		t.Errorf("result = %+v", res)
	}
	if healthyHits.Load() != 1 {
		t.Errorf("healthy backend hits = %d, want 1", healthyHits.Load())
	}
	if st := sched.Stats(); st.Retried != 1 {
		t.Errorf("stats = %+v, want 1 retried", st)
	}
}

// homedRequest returns a valid request whose canonical key is homed on
// node, so tests can pin which backend an attempt hits first.
func homedRequest(t *testing.T, sched *Scheduler, node string) (frontendsim.Request, string) {
	t.Helper()
	for _, bench := range frontendsim.Benchmarks() {
		for _, fe := range []int{0, 2, 4} {
			req := frontendsim.Request{Benchmark: bench, Frontends: fe}
			key, err := sched.eng.RequestKey(req)
			if err != nil {
				t.Fatal(err)
			}
			if sched.Ring().Node(key) == node {
				return req, key
			}
		}
	}
	t.Fatalf("no benchmark/config homes on %s", node)
	return frontendsim.Request{}, ""
}

// TestWalkFailsOverOn5xxStopsOn4xx: a 5xx walks the ring to the next
// node, while a request error (4xx) aborts the walk at once.
func TestWalkFailsOverOn5xxStopsOn4xx(t *testing.T) {
	var deadHits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "down"})
	}))
	t.Cleanup(dead.Close)
	body, _ := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
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
	res, err := sched.Dispatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "gzip" {
		t.Errorf("result = %+v", res)
	}
	if st := sched.Stats(); st.Retried != 1 {
		t.Errorf("stats = %+v, want 1 retried (5xx failover)", st)
	}

	// And a request error still aborts everything immediately.
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "no"})
	}))
	t.Cleanup(refusing.Close)
	sched2, err := New(frontendsim.New(testOpts()...), Config{
		Backends: []string{refusing.URL, healthy.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	req2, _ := homedRequest(t, sched2, refusing.URL)
	var be *BackendError
	if _, err := sched2.Dispatch(context.Background(), req2); !errors.As(err, &be) || be.Status != http.StatusBadRequest {
		t.Errorf("err = %v, want a 400 BackendError with no failover", err)
	}
}
