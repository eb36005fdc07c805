package simd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashring"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// warmEngine matches the chaos-tier short simulations so scheduler and
// backend cache keys align, counting engine runs through the observer.
func warmEngine() (*frontendsim.Engine, *atomic.Int64) {
	var runs atomic.Int64
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(12_000),
		frontendsim.WithMeasureOps(25_000),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
			}
		})),
	)
	return eng, &runs
}

// replica is one repair test node: a simd server over its own memory
// store, reachable over real HTTP.
type replica struct {
	api   *Server
	store resultstore.Store
	runs  *atomic.Int64
	url   string
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	store := resultstore.NewMemory(256)
	t.Cleanup(func() { store.Close() })
	eng, runs := warmEngine()
	api := NewServerWithStore(eng, store)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &replica{api: api, store: store, runs: runs, url: srv.URL}
}

// ringStub serves a fixed GET /v1/ring snapshot.
func ringStub(t *testing.T, backends []string, epoch uint64) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ring" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"backends": backends, "epoch": epoch})
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func storeKeySet(t *testing.T, s resultstore.Store) map[string]bool {
	t.Helper()
	keys, ok, err := resultstore.ScanKeys(context.Background(), s, nil)
	if !ok || err != nil {
		t.Fatalf("ScanKeys = ok %v err %v", ok, err)
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

func converge(t *testing.T, ae *AntiEntropy, timeout time.Duration) (int, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return ae.Converge(ctx)
}

// TestConvergePullsOnlyOwnSlice seeds a peer with keys spread over the
// whole hash space and asserts the joiner pulls exactly the keys that
// hash to its slice of the ring the scheduler reports — not the peer's
// whole store — and does not settle while the ring epoch moves.
func TestConvergePullsOnlyOwnSlice(t *testing.T) {
	peer, joiner := newReplica(t), newReplica(t)
	// The epoch moves on each of the first three ring reads, then holds.
	var reads atomic.Uint64
	ringSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		epoch := min(reads.Add(1), 3)
		json.NewEncoder(w).Encode(map[string]any{"backends": []string{peer.url}, "epoch": epoch})
	}))
	t.Cleanup(ringSrv.Close)

	ring, err := hashring.New([]string{peer.url, joiner.url})
	if err != nil {
		t.Fatal(err)
	}
	wantMine := map[string]bool{}
	for i := 0; i < 40; i++ {
		key := digestKey(i)
		if err := peer.store.Set(context.Background(), key, []byte("body-"+key)); err != nil {
			t.Fatal(err)
		}
		if ring.Node(key) == joiner.url {
			wantMine[key] = true
		}
	}
	if len(wantMine) == 0 || len(wantMine) == 40 {
		t.Fatalf("degenerate slice: %d of 40 keys homed on the joiner", len(wantMine))
	}

	ae := newAntiEntropy(t, joiner, AntiEntropyConfig{RingURL: ringSrv.URL})
	pulled, err := converge(t, ae, 10*time.Second)
	if err != nil {
		t.Fatalf("Converge: %v", err)
	}
	if pulled != len(wantMine) {
		t.Fatalf("pulled %d, want the %d slice keys", pulled, len(wantMine))
	}
	// Pass 1 pulls under epoch 1 and sees it move to 2; pass 2 settles
	// on two reads of epoch 3.
	if n := reads.Load(); n < 4 {
		t.Errorf("Converge settled after %d ring reads; the epoch was still moving", n)
	}
	got := storeKeySet(t, joiner.store)
	for k := range wantMine {
		if !got[k] {
			t.Errorf("slice key %q not pulled", k)
		}
	}
	for k := range got {
		if !wantMine[k] {
			t.Errorf("pulled %q, homed on the peer", k)
		}
	}
	if n := joiner.api.aePulled.Load(); n != uint64(len(wantMine)) {
		t.Errorf("simd_antientropy_pulled_total = %d, want %d", n, len(wantMine))
	}
}

// TestConvergeFallsBackPast501Peer pins the capability fallback: the
// first peer's store cannot enumerate (it answers 501 to the digest), so
// the joiner converges from the second peer alone.
func TestConvergeFallsBackPast501Peer(t *testing.T) {
	eng, _ := warmEngine()
	blind := httptest.NewServer(NewServerWithStore(eng, bareStore{resultstore.NewMemory(16)}))
	t.Cleanup(blind.Close)

	sighted, joiner := newReplica(t), newReplica(t)
	seedKeys(t, sighted.store, 0, 3)

	ae := newAntiEntropy(t, joiner, AntiEntropyConfig{Peers: []string{blind.URL, sighted.url}})
	pulled, err := converge(t, ae, 10*time.Second)
	if err != nil {
		t.Fatalf("Converge with a non-enumerating peer: %v", err)
	}
	if pulled != 3 {
		t.Fatalf("pulled %d, want the sighted peer's 3", pulled)
	}
	for i := 0; i < 3; i++ {
		k := digestKey(i)
		if v, ok, _ := resultstore.Peek(context.Background(), joiner.store, k); !ok || string(v) != "body-"+k {
			t.Errorf("key %s = %q %v after convergence", k, v, ok)
		}
	}
}

// TestConvergeResumesAfterPeerFailure fails one entry pull once, as if
// the peer died mid-pull and came back: Converge must pull the key on a
// later pass instead of settling without it, and count the failure.
func TestConvergeResumesAfterPeerFailure(t *testing.T) {
	peer := newReplica(t)
	seedKeys(t, peer.store, 0, 6)
	victim := "/v1/store/entries/" + digestKey(3)
	var crashed atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == victim && crashed.CompareAndSwap(false, true) {
			http.Error(w, "mid-pull crash", http.StatusInternalServerError)
			return
		}
		peer.api.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	joiner := newReplica(t)
	ae := newAntiEntropy(t, joiner, AntiEntropyConfig{Peers: []string{flaky.URL}})
	pulled, err := converge(t, ae, 10*time.Second)
	if err != nil {
		t.Fatalf("Converge did not resume past the failed pull: %v", err)
	}
	if pulled != 6 {
		t.Fatalf("pulled %d, want all 6 keys across passes", pulled)
	}
	if joiner.api.aeErrs.Load() == 0 {
		t.Error("simd_antientropy_errors_total = 0, want the failed pull counted")
	}
	for i := 0; i < 6; i++ {
		k := digestKey(i)
		if v, ok, _ := resultstore.Peek(context.Background(), joiner.store, k); !ok || string(v) != "body-"+k {
			t.Errorf("key %s = %q %v", k, v, ok)
		}
	}
}

// TestConvergeSettlesWhenStoreCannotHoldSlice gives the joiner an LRU
// smaller than the peer's store: each pull evicts an earlier one, so
// the joiner never holds the whole slice.  Converge must settle after
// the clean pass instead of re-pulling its own evictions until the
// deadline.
func TestConvergeSettlesWhenStoreCannotHoldSlice(t *testing.T) {
	peer := newReplica(t)
	seedKeys(t, peer.store, 0, 12)
	store := resultstore.NewMemory(4)
	t.Cleanup(func() { store.Close() })
	eng, _ := warmEngine()
	// No URL: a standby converging from a static peer list needs none.
	joiner := &replica{api: NewServerWithStore(eng, store), store: store}

	ae := newAntiEntropy(t, joiner, AntiEntropyConfig{Peers: []string{peer.url}})
	start := time.Now()
	pulled, err := converge(t, ae, 10*time.Second)
	if err != nil {
		t.Fatalf("Converge into a 4-entry store: %v", err)
	}
	if pulled != 12 {
		t.Errorf("pulled %d, want each of the peer's 12 keys exactly once", pulled)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Converge took %v; it kept re-pulling evicted keys", elapsed)
	}
}

// TestConvergeTimeoutReturnsError pins the failure mode: no peer ever
// answers, the deadline lapses, and Converge reports an error instead
// of spinning.
func TestConvergeTimeoutReturnsError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	joiner := newReplica(t)
	ae := newAntiEntropy(t, joiner, AntiEntropyConfig{Peers: []string{dead.URL}})
	start := time.Now()
	if _, err := converge(t, ae, 400*time.Millisecond); err == nil {
		t.Fatal("Converge succeeded with no answering peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Converge took %v to honour a 400ms deadline", elapsed)
	}
}

// TestConvergeRejoinServesSliceWithoutRecompute is the headline
// integration test: a 3-replica fleet loses replica C, suites run over
// the survivors, and a fresh C rejoins through Converge.  The rejoined
// C must hold /healthz at 503 until convergence completes and then
// answer every request of its ring slice byte-identical to the original
// computation with X-Cache: HIT and zero local engine runs.
func TestConvergeRejoinServesSliceWithoutRecompute(t *testing.T) {
	// Replicas A and B survive; C is dead (it only ever existed as a
	// ring address — the fresh one below takes over its slice).
	a, b := newReplica(t), newReplica(t)
	eng, _ := warmEngine()
	sched, err := scheduler.New(eng, scheduler.Config{Backends: []string{a.url, b.url}})
	if err != nil {
		t.Fatal(err)
	}
	schedSrv := httptest.NewServer(scheduler.NewServer(sched))
	t.Cleanup(schedSrv.Close)

	suite := frontendsim.SuiteRequest{Benchmarks: frontendsim.Benchmarks()}
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}

	// The fresh C: cold store, not ready — /healthz must answer 503
	// while Converge runs, so the scheduler keeps routing around it.
	c := newReplica(t)
	c.api.SetReady(false)
	if w := get(t, c.api, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz before convergence = %d, want 503", w.Code)
	}

	ae := newAntiEntropy(t, c, AntiEntropyConfig{Peers: []string{a.url, b.url}, RingURL: schedSrv.URL})
	pulled, err := converge(t, ae, 2*time.Minute)
	if err != nil {
		t.Fatalf("Converge: %v", err)
	}
	if w := get(t, c.api, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after convergence but before SetReady = %d, want 503 (readiness is the caller's flip)", w.Code)
	}
	c.api.SetReady(true)
	if w := get(t, c.api, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after SetReady = %d", w.Code)
	}

	// C's slice under the post-join ring: benchmarks whose key homes on
	// C among {A, B, C}.
	ring, err := hashring.New([]string{a.url, b.url, c.url})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Node(key) != c.url {
			continue
		}
		served++
		// The bytes the surviving fleet serves for this key.
		want, ok, err := resultstore.Peek(context.Background(), a.store, key)
		if err != nil || !ok {
			want, ok, err = resultstore.Peek(context.Background(), b.store, key)
		}
		if err != nil || !ok {
			t.Fatalf("benchmark %s (key %s) not in any survivor's store", bench, key)
		}
		w := post(t, c.api, "/v1/simulations", fmt.Sprintf(`{"benchmark":%q}`, bench))
		if w.Code != http.StatusOK {
			t.Fatalf("POST %s to rejoined C = %d", bench, w.Code)
		}
		if got := w.Header().Get("X-Cache"); got != "HIT" {
			t.Errorf("benchmark %s: X-Cache = %q, want HIT from the converged store", bench, got)
		}
		if w.Body.String() != string(want) {
			t.Errorf("benchmark %s: body differs from the original computation", bench)
		}
	}
	if served == 0 {
		t.Fatal("no benchmark homed on C; test proves nothing")
	}
	if runs := c.runs.Load(); runs != 0 {
		t.Errorf("rejoined C ran its engine %d times; the converged slice must serve without recompute", runs)
	}
	if pulled == 0 || c.api.aePulled.Load() == 0 {
		t.Errorf("convergence pulled nothing: returned %d, simd_antientropy_pulled_total %d",
			pulled, c.api.aePulled.Load())
	}
}
