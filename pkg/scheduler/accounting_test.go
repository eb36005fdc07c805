package scheduler

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// cacheStatsBody is the scheduler's GET /v1/cache/stats response.
type cacheStatsBody struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
}

// getCacheStats reads srv's /v1/cache/stats.
func getCacheStats(t *testing.T, srv *Server) cacheStatsBody {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	var st cacheStatsBody
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("cache stats %q: %v", w.Body.Bytes(), err)
	}
	return st
}

// postSimulationTo posts body to srv's /v1/simulations and returns the
// response.
func postSimulationTo(srv *Server, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulations", strings.NewReader(body)))
	return w
}

// TestSchedulerStoreAccounting pins the scheduler tier's store-op
// accounting, which follows simd's: every request makes one counted
// store lookup before the single-flight group, the re-check inside the
// group is never counted, and N concurrent identical misses make one
// dispatch, N store misses and N−1 coalesced answers.
func TestSchedulerStoreAccounting(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stored  bool // the key is in the store before the requests
		callers int
		xcache  []string // sorted
		stats   cacheStatsBody
		sched   Stats
	}{
		{"hit", true, 1, []string{"HIT"},
			cacheStatsBody{Entries: 1, Hits: 1}, Stats{CacheHits: 1}},
		{"miss", false, 1, []string{"MISS"},
			cacheStatsBody{Entries: 1, Misses: 1}, Stats{Dispatched: 1}},
		{"concurrent misses", false, 4, []string{"COALESCED", "COALESCED", "COALESCED", "MISS"},
			cacheStatsBody{Entries: 1, Misses: 4, Coalesced: 3}, Stats{Dispatched: 1, Coalesced: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			stub, requests := cannedBackend(t, gate)
			store := resultstore.NewMemory(64)
			sched, err := New(frontendsim.New(testOpts()...), Config{Backends: []string{stub.URL}, Cache: store})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(sched)
			if tc.stored {
				key, err := sched.eng.RequestKey(frontendsim.Request{Benchmark: "gzip"})
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
				if err != nil {
					t.Fatal(err)
				}
				store.Set(t.Context(), key, body)
			}

			xcache := make([]string, tc.callers)
			var wg sync.WaitGroup
			for i := range xcache {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := postSimulationTo(srv, `{"benchmark":"gzip"}`)
					if w.Code != http.StatusOK {
						t.Errorf("caller %d: status %d: %s", i, w.Code, w.Body.Bytes())
					}
					xcache[i] = w.Header().Get("X-Cache")
				}()
			}
			if !tc.stored {
				// Every caller has missed the store once it counts
				// tc.callers misses; give the last one time to reach
				// the single-flight group, then let the one backend call
				// complete.
				deadline := time.Now().Add(5 * time.Second)
				for getCacheStats(t, srv).Misses < uint64(tc.callers) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(100 * time.Millisecond)
				close(gate)
			}
			wg.Wait()

			slices.Sort(xcache)
			if !slices.Equal(xcache, tc.xcache) {
				t.Errorf("X-Cache = %v, want %v", xcache, tc.xcache)
			}
			if got := getCacheStats(t, srv); got != tc.stats {
				t.Errorf("/v1/cache/stats = %+v, want %+v", got, tc.stats)
			}
			if got := sched.Stats(); got != tc.sched {
				t.Errorf("Stats = %+v, want %+v", got, tc.sched)
			}
			if got := requests.Load(); got != int64(tc.sched.Dispatched) {
				t.Errorf("backend saw %d requests, want %d", got, tc.sched.Dispatched)
			}
		})
	}
}

// TestSchedulerMistypedStoredEntryIsMiss pins that a stored entry
// json.Unmarshal would refuse into a Result — here a config field of
// the wrong type, which a syntax check alone passes — is a miss: the
// request is answered MISS with the bytes the backend recomputes, never
// with the stored ones.  The refused entry is deleted, so the
// recompute's write-back replaces it and later requests HIT.
func TestSchedulerMistypedStoredEntryIsMiss(t *testing.T) {
	stub, requests := cannedBackend(t, nil)
	store := resultstore.NewMemory(64)
	sched, err := New(frontendsim.New(testOpts()...), Config{Backends: []string{stub.URL}, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	req := frontendsim.Request{Benchmark: "gzip"}
	key, err := sched.eng.RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(good, []byte(`"Clusters":0`), []byte(`"Clusters":"4"`), 1)
	if bytes.Equal(bad, good) || !json.Valid(bad) {
		t.Fatalf("mistyped entry %s", bad)
	}
	store.Set(t.Context(), key, bad)

	srv := NewServer(sched)
	for i, want := range []string{"MISS", "HIT", "HIT"} {
		w := postSimulationTo(srv, `{"benchmark":"gzip"}`)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != want {
			t.Fatalf("request %d: status %d, X-Cache %q, want 200 %s", i, w.Code, w.Header().Get("X-Cache"), want)
		}
		if !bytes.Equal(w.Body.Bytes(), good) {
			t.Errorf("request %d served %s, want the recomputed %s", i, w.Body.Bytes(), good)
		}
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("backend saw %d requests, want 1 (the recompute)", n)
	}
	if st := sched.Stats(); st.CacheHits != 2 || st.Dispatched != 1 {
		t.Errorf("stats = %+v, want 2 cache hits / 1 dispatched", st)
	}
	if held, ok, _ := store.Peek(t.Context(), key); !ok || !bytes.Equal(held, good) {
		t.Errorf("store holds %s, want the recomputed %s", held, good)
	}
}
