package simd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/memcachetest"
	"repro/pkg/resultstore"
)

// digestKey produces a digest-shaped key (production keys are canonical
// request hashes; sequential strings would cluster on the FNV ring).
func digestKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("ae-%03d", i)))
	return fmt.Sprintf("%x", sum[:8])
}

func seedKeys(t *testing.T, s resultstore.Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		k := digestKey(i)
		if err := s.Set(context.Background(), k, []byte("body-"+k)); err != nil {
			t.Fatal(err)
		}
	}
}

func newAntiEntropy(t *testing.T, r *replica, cfg AntiEntropyConfig) *AntiEntropy {
	t.Helper()
	if cfg.SelfURL == "" {
		cfg.SelfURL = r.url
	}
	ae, err := r.api.NewAntiEntropy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ae
}

// TestAntiEntropyConverges diverges two stores — each holds keys the
// other is missing plus a shared set — and asserts one RunOnce per side
// converges both to the union, with matching digests.
func TestAntiEntropyConverges(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, a.store, 0, 20)  // 0..14 exclusive to A via below
	seedKeys(t, b.store, 15, 35) // 15..19 shared, 20..34 exclusive to B

	aeA := newAntiEntropy(t, a, AntiEntropyConfig{Peers: []string{b.url}})
	aeB := newAntiEntropy(t, b, AntiEntropyConfig{Peers: []string{a.url}})

	pulledA, err := aeA.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("A RunOnce: %v", err)
	}
	if pulledA != 15 {
		t.Errorf("A pulled %d, want B's 15 exclusive keys", pulledA)
	}
	pulledB, err := aeB.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("B RunOnce: %v", err)
	}
	if pulledB != 15 {
		t.Errorf("B pulled %d, want A's 15 exclusive keys", pulledB)
	}

	keysA, _, _ := resultstore.ScanKeys(context.Background(), a.store, nil)
	keysB, _, _ := resultstore.ScanKeys(context.Background(), b.store, nil)
	if len(keysA) != 35 || len(keysB) != 35 {
		t.Fatalf("converged sizes = %d, %d; want 35 each", len(keysA), len(keysB))
	}
	if resultstore.KeyDigest(keysA) != resultstore.KeyDigest(keysB) {
		t.Fatal("digests differ after convergence")
	}
	for i := 0; i < 35; i++ {
		k := digestKey(i)
		if v, ok, _ := resultstore.Peek(context.Background(), a.store, k); !ok || string(v) != "body-"+k {
			t.Fatalf("A missing %s after repair", k)
		}
	}
	if a.api.aePulled.Load() != 15 || a.api.aeRounds.Load() != 1 {
		t.Errorf("A counters: pulled=%d rounds=%d", a.api.aePulled.Load(), a.api.aeRounds.Load())
	}
}

// TestAntiEntropyIdenticalStoresNoop pins the steady state: matching
// digests mean zero pulls and zero per-key traffic.
func TestAntiEntropyIdenticalStoresNoop(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, a.store, 0, 10)
	seedKeys(t, b.store, 0, 10)
	ae := newAntiEntropy(t, a, AntiEntropyConfig{Peers: []string{b.url}})
	pulled, err := ae.RunOnce(context.Background())
	if err != nil || pulled != 0 {
		t.Fatalf("RunOnce on identical stores = %d, %v", pulled, err)
	}
}

// TestAntiEntropyRingDiscovery resolves peers from the scheduler's
// /v1/ring instead of a static list.
func TestAntiEntropyRingDiscovery(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, b.store, 0, 5)
	ringURL := ringStub(t, []string{a.url, b.url}, 3)
	ae := newAntiEntropy(t, a, AntiEntropyConfig{RingURL: ringURL})
	pulled, err := ae.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	if pulled != 5 {
		t.Errorf("pulled %d via ring discovery, want 5", pulled)
	}
}

// TestAntiEntropyFallsPastDeadPeer keeps repairing when the preferred
// neighbor is down: the round falls over to the next peer.
func TestAntiEntropyFallsPastDeadPeer(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, b.store, 0, 5)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	ae := newAntiEntropy(t, a, AntiEntropyConfig{Peers: []string{deadURL, b.url}})
	pulled, err := ae.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("RunOnce with one dead peer: %v", err)
	}
	if pulled != 5 {
		t.Errorf("pulled %d, want 5 from the surviving peer", pulled)
	}
}

// TestAntiEntropyUnscannableLocalStore: a remote-backed local store
// cannot digest itself; RunOnce reports ErrScanUnsupported so the loop
// can disable itself instead of erroring forever.
func TestAntiEntropyUnscannableLocalStore(t *testing.T) {
	cache := memcachetest.Start(t)
	store, err := resultstore.NewRemote(resultstore.RemoteConfig{Servers: []string{cache.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	eng, _ := warmEngine()
	api := NewServerWithStore(eng, store)
	peer := newReplica(t)
	ae, err := api.NewAntiEntropy(AntiEntropyConfig{SelfURL: "http://self", Peers: []string{peer.url}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.RunOnce(context.Background()); !errors.Is(err, resultstore.ErrScanUnsupported) {
		t.Fatalf("RunOnce over a remote store = %v, want ErrScanUnsupported", err)
	}
}

// TestAntiEntropyLoop runs the production Start/Close path: divergence
// heals within a few ticks.
func TestAntiEntropyLoop(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	seedKeys(t, b.store, 0, 3)
	ae := newAntiEntropy(t, a, AntiEntropyConfig{Peers: []string{b.url}, Interval: 10 * time.Millisecond})
	ae.Start()
	defer ae.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.api.aePulled.Load() == 3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("loop pulled %d of 3 before the deadline", a.api.aePulled.Load())
}

// TestAntiEntropyRefusesBadEntries pulls from a peer that serves one
// good entry, one empty entry and one entry over DefaultMaxBodyBytes:
// the bad two count as failed pulls and only the good one is stored,
// the same rules PUT /v1/store/entries applies.
func TestAntiEntropyRefusesBadEntries(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	good, empty, big := digestKey(0), digestKey(1), digestKey(2)
	seedKeys(t, b.store, 0, 3)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/store/entries/" + empty:
			w.WriteHeader(http.StatusOK)
		case "/v1/store/entries/" + big:
			w.Write(bytes.Repeat([]byte("x"), DefaultMaxBodyBytes+1))
		default:
			b.api.ServeHTTP(w, r)
		}
	}))
	defer peer.Close()

	ae := newAntiEntropy(t, a, AntiEntropyConfig{Peers: []string{peer.URL}})
	pulled, failed, err := ae.exchange(context.Background(), peer.URL, ae.cfg.Buckets, map[string]bool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 1 || failed != 2 {
		t.Fatalf("exchange pulled %d, failed %d; want 1 and 2", pulled, failed)
	}
	keys := storeKeySet(t, a.store)
	if len(keys) != 1 || !keys[good] {
		t.Fatalf("stored keys %v, want only %s", keys, good)
	}
	if v, ok, _ := resultstore.Peek(context.Background(), a.store, good); !ok || string(v) != "body-"+good {
		t.Fatalf("good entry stored as %q", v)
	}
}
