package simd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/frontendsim"
)

// countingEngine builds a short-run engine whose observer counts engine
// runs (each run emits exactly one interval-0 snapshot) and, when gate is
// non-nil, blocks the first interval until gate closes — holding the run
// in flight so concurrent requests must coalesce onto it.
func countingEngine(gate <-chan struct{}) (*frontendsim.Engine, *atomic.Int64) {
	var runs atomic.Int64
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
				if gate != nil {
					<-gate
				}
			}
		})),
	)
	return eng, &runs
}

// TestSimulateCoalescesConcurrentRequests fires N identical concurrent
// requests at a cache-disabled server and asserts exactly one engine run
// served all of them, with identical bodies.
func TestSimulateCoalescesConcurrentRequests(t *testing.T) {
	gate := make(chan struct{})
	eng, runs := countingEngine(gate)
	srv := NewServer(eng, 0) // cache off: coalescing is the only dedup

	const callers = 8
	recorders := make([]*httptest.ResponseRecorder, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/simulations",
				strings.NewReader(`{"benchmark":"gzip"}`))
			srv.ServeHTTP(w, req)
			recorders[i] = w
		}(i)
	}
	// Let every caller reach the single-flight group (the leader is
	// parked on its first interval), then release the run.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Errorf("%d concurrent identical requests ran the engine %d times, want 1", callers, n)
	}
	var miss, coalesced int
	for i, w := range recorders {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), recorders[0].Body.Bytes()) {
			t.Errorf("request %d: body differs from request 0", i)
		}
		switch xc := w.Header().Get("X-Cache"); xc {
		case "MISS":
			miss++
		case "COALESCED":
			coalesced++
		default:
			t.Errorf("request %d: unexpected X-Cache %q", i, xc)
		}
	}
	if miss != 1 || coalesced != callers-1 {
		t.Errorf("served %d MISS + %d COALESCED, want 1 + %d", miss, coalesced, callers-1)
	}

	stats := httptest.NewRecorder()
	srv.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	var st struct {
		Coalesced uint64 `json:"coalesced"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Coalesced != callers-1 {
		t.Errorf("stats report %d coalesced, want %d", st.Coalesced, callers-1)
	}
}
