package simd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/memcachetest"
	"repro/pkg/resultstore"
)

// TestReplicaServesPeerResultFromRemoteStore is the shared-tier
// acceptance test: two simd replicas — separate engines, separate
// processes for all the store can tell — share one remote cache.
// Replica A computes a simulation and writes it through; replica B
// answers the identical request with X-Cache: HIT and zero engine runs,
// byte-identical to A's response.  That is the paper's cross-machine
// work sharing made concrete: a fresh replica serves a peer's keys
// without recomputing them.
func TestReplicaServesPeerResultFromRemoteStore(t *testing.T) {
	cache := memcachetest.Start(t)
	const reqBody = `{"benchmark":"gzip","bank_hopping":true}`

	newReplica := func() (*Server, *atomic.Int64, resultstore.Store) {
		store, err := resultstore.NewRemote(resultstore.RemoteConfig{
			Servers: []string{cache.Addr()},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		eng, runs := countingEngine(nil)
		return NewServerWithStore(eng, store), runs, store
	}

	replicaA, runsA, _ := newReplica()
	first := post(t, replicaA, "/v1/simulations", reqBody)
	if first.Code != http.StatusOK {
		t.Fatalf("replica A status = %d, body %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("replica A X-Cache = %q, want MISS", got)
	}
	if runsA.Load() != 1 {
		t.Fatalf("replica A ran the engine %d times, want 1", runsA.Load())
	}

	replicaB, runsB, storeB := newReplica()
	second := post(t, replicaB, "/v1/simulations", reqBody)
	if second.Code != http.StatusOK {
		t.Fatalf("replica B status = %d, body %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("replica B X-Cache = %q, want HIT", got)
	}
	if runsB.Load() != 0 {
		t.Errorf("replica B ran the engine %d times, want 0", runsB.Load())
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("replica B's body differs from replica A's")
	}
	if st := storeB.Stats()[0]; st.Tier != "remote" || st.Hits != 1 {
		t.Errorf("replica B remote tier = %+v, want 1 hit", st)
	}
}

// TestTieredRemoteDegradesWhenCacheDies: a replica with a memory tier
// in front of a remote one keeps serving (memory tier + engine) when
// the shared cache becomes unreachable — requests succeed, nothing
// hangs, and /healthz stays ready.
func TestTieredRemoteDegradesWhenCacheDies(t *testing.T) {
	cache := memcachetest.Start(t)
	remote, err := resultstore.NewRemote(resultstore.RemoteConfig{
		Servers: []string{cache.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := resultstore.NewTiered(resultstore.NewMemory(16), remote)
	defer store.Close()
	eng, runs := countingEngine(nil)
	srv := NewServerWithStore(eng, store)

	const reqBody = `{"benchmark":"gzip"}`
	if w := post(t, srv, "/v1/simulations", reqBody); w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("warm-up X-Cache = %q, want MISS", w.Header().Get("X-Cache"))
	}

	cache.Close()

	// The memory tier still answers the warm key.
	if w := post(t, srv, "/v1/simulations", reqBody); w.Header().Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache after cache death = %q, want HIT from the memory tier",
			w.Header().Get("X-Cache"))
	}
	// A cold key computes: the dead remote tier reads as a miss, not a
	// failure.
	w := post(t, srv, "/v1/simulations", `{"benchmark":"mcf"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("cold request with dead cache: status %d, body %s", w.Code, w.Body.String())
	}
	if runs.Load() != 2 {
		t.Errorf("engine ran %d times, want 2", runs.Load())
	}
	// Peek-backed health stays green: front tier healthy ⇒ degraded,
	// not down.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz with dead remote tier = %d, want 200", rec.Code)
	}
}
