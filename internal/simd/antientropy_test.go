package simd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestAntiEntropyUnscannableLocalStore: a local store without Keys
// cannot digest itself; RunOnce reports ErrScanUnsupported so the loop
// can disable itself instead of erroring forever.
func TestAntiEntropyUnscannableLocalStore(t *testing.T) {
	eng, _ := warmEngine()
	api := NewServerWithStore(eng, bareStore{resultstore.NewMemory(16)})
	peer := newReplica(t)
	ae, err := api.NewAntiEntropy(AntiEntropyConfig{SelfURL: "http://self", Peers: []string{peer.url}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.RunOnce(context.Background()); !errors.Is(err, resultstore.ErrScanUnsupported) {
		t.Fatalf("RunOnce over a store without Keys = %v, want ErrScanUnsupported", err)
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
// the body rules pullEntry applies.
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

// TestAntiEntropyRefusesBadListings pulls from a peer whose key listing
// adds an empty key, an over-long key and a key outside the listed
// bucket to one good key, and serves an entry for each: the three count
// as failed and only the good key is stored, the key rules GET
// /v1/store/entries/{key} applies.  A digest or ring answer over
// DefaultMaxBodyBytes fails the exchange or the ring read.
func TestAntiEntropyRefusesBadListings(t *testing.T) {
	const buckets = 8
	a, b := newReplica(t), newReplica(t)
	good := digestKey(0)
	seedKeys(t, b.store, 0, 1)
	outside := ""
	for i := 1; outside == ""; i++ {
		if k := digestKey(i); resultstore.BucketOf(k, buckets) != resultstore.BucketOf(good, buckets) {
			outside = k
		}
	}
	bad := []string{"", strings.Repeat("k", maxStoreKeyLen+1), outside}
	var oversized atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		b.api.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		switch {
		case r.URL.Path == "/v1/store/keys":
			var l storeKeysResponse
			if err := json.Unmarshal(body, &l); err != nil {
				t.Error(err)
			}
			l.Keys = append(l.Keys, bad...)
			body, _ = json.Marshal(l)
		case strings.HasPrefix(r.URL.Path, "/v1/store/entries/") && !strings.HasSuffix(r.URL.Path, good):
			body = []byte("body-bad")
		case r.URL.Path == "/v1/store/digest" && oversized.Load():
			body = append(body, bytes.Repeat([]byte(" "), DefaultMaxBodyBytes)...)
		}
		w.Write(body)
	}))
	defer peer.Close()

	ae := newAntiEntropy(t, a, AntiEntropyConfig{Peers: []string{peer.URL}, Buckets: buckets})
	pulled, failed, err := ae.exchange(context.Background(), peer.URL, buckets, map[string]bool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 1 || failed != len(bad) {
		t.Errorf("exchange pulled %d, failed %d; want 1 and %d", pulled, failed, len(bad))
	}
	if keys := storeKeySet(t, a.store); len(keys) != 1 || !keys[good] {
		t.Errorf("stored keys %v, want only %s", keys, good)
	}

	oversized.Store(true)
	if _, _, err := ae.exchange(context.Background(), peer.URL, buckets, map[string]bool{}, nil); err == nil {
		t.Error("exchange accepted a digest over DefaultMaxBodyBytes")
	}
	ring := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"backends":[%q],"epoch":1}%s`, peer.URL, strings.Repeat(" ", DefaultMaxBodyBytes))
	}))
	defer ring.Close()
	ringAE := newAntiEntropy(t, a, AntiEntropyConfig{RingURL: ring.URL})
	if _, err := ringAE.ring(context.Background()); err == nil {
		t.Error("ring read accepted a body over DefaultMaxBodyBytes")
	}
}

// FuzzPeerListing feeds arbitrary bytes to the peer listing decoder: it
// must not panic, a digest answer must carry one digest per bucket, and
// every listed key it returns must be storable (storeKeyError) and hash
// into the bucket that was listed.
func FuzzPeerListing(f *testing.F) {
	f.Add([]byte(`{"buckets":2,"count":1,"digests":[{"count":1,"sum":7},{"count":0,"sum":0}]}`), -1, 2)
	f.Add([]byte(`{"count":3,"keys":["`+digestKey(0)+`","","`+digestKey(1)+`"]}`), 0, 2)
	f.Add([]byte(`{"keys":["`+strings.Repeat("k", maxStoreKeyLen+1)+`"]}`), 1, 4)
	f.Add([]byte(`{"keys":null,"digests":null}`), 0, 1)
	f.Fuzz(func(t *testing.T, body []byte, bucket, buckets int) {
		if buckets < 1 || buckets > maxDigestBuckets || bucket >= buckets {
			return
		}
		l, refused, err := decodePeerListing(body, bucket, buckets)
		if err != nil {
			return
		}
		if refused < 0 {
			t.Fatalf("refused = %d", refused)
		}
		if bucket < 0 {
			if len(l.Digests) != buckets {
				t.Fatalf("%d digests for %d buckets", len(l.Digests), buckets)
			}
			return
		}
		for _, key := range l.Keys {
			if err := storeKeyError(key); err != nil {
				t.Fatalf("returned unstorable key %q: %v", key, err)
			}
			if got := resultstore.BucketOf(key, buckets); got != bucket {
				t.Fatalf("returned key %q in bucket %d, listed bucket %d", key, got, bucket)
			}
		}
	})
}
