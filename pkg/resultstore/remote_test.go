package resultstore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/memcachetest"
)

func newRemote(t *testing.T, cfg RemoteConfig) *Remote {
	t.Helper()
	r, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestRemoteRoundTrip(t *testing.T) {
	srv := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}})

	mustSet(t, r, "a", "alpha")
	mustSet(t, r, "b", "beta")
	if v, ok := mustGet(t, r, "a"); !ok || string(v) != "alpha" {
		t.Errorf("a = %q %v", v, ok)
	}
	if v, ok := mustGet(t, r, "b"); !ok || string(v) != "beta" {
		t.Errorf("b = %q %v", v, ok)
	}
	if _, ok := mustGet(t, r, "missing"); ok {
		t.Error("missing key hit")
	}
	st := r.Stats()[0]
	if st.Tier != "remote" || st.Hits != 2 || st.Misses != 1 || st.Sets != 2 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Overwrite: newest record wins.
	mustSet(t, r, "a", "alpha2")
	if v, ok := mustGet(t, r, "a"); !ok || string(v) != "alpha2" {
		t.Errorf("a after overwrite = %q %v", v, ok)
	}
}

func TestRemotePeekInvisible(t *testing.T) {
	srv := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}})
	mustSet(t, r, "k", "v")
	if v, ok, err := r.Peek(ctx, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Peek = %q %v %v", v, ok, err)
	}
	if _, ok, err := r.Peek(ctx, "nope"); err != nil || ok {
		t.Fatalf("Peek miss = %v %v", ok, err)
	}
	st := r.Stats()[0]
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek perturbed counters: %+v", st)
	}
}

func TestRemoteTTLExpiry(t *testing.T) {
	srv := memcachetest.Start(t)
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	srv.SetNow(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	})
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}, TTL: 60 * time.Second})
	mustSet(t, r, "k", "v")
	if _, ok := mustGet(t, r, "k"); !ok {
		t.Fatal("k missing before expiry")
	}
	mu.Lock()
	now = now.Add(61 * time.Second)
	mu.Unlock()
	if _, ok := mustGet(t, r, "k"); ok {
		t.Fatal("k served after its TTL lapsed")
	}
}

// TestRemoteBatchedGets pins the coalescing behaviour: while one
// multi-get is in flight (the server's injected delay holds the single
// worker busy), further concurrent Gets queue up and the next drain
// carries them in one round trip.
func TestRemoteBatchedGets(t *testing.T) {
	srv := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}, Workers: 1})
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"} {
		mustSet(t, r, k, "v-"+k)
	}
	srv.SetDelay(50 * time.Millisecond)

	var wg sync.WaitGroup
	start := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, ok := mustGet(t, r, key); !ok || string(v) != "v-"+key {
				t.Errorf("%s = %q %v", key, v, ok)
			}
		}()
	}
	// The first Get occupies the worker; the rest pile onto the queue
	// while its round trip waits out the server delay.
	start("k0")
	time.Sleep(20 * time.Millisecond)
	for _, k := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7"} {
		start(k)
	}
	wg.Wait()

	if got := srv.Counts(); got.MaxBatch < 2 {
		t.Errorf("no multi-get batching: server saw max batch %d", got.MaxBatch)
	} else if got.GetKeys != 8 {
		t.Errorf("server saw %d get keys, want 8", got.GetKeys)
	}
	if batches, keys := r.BatchStats(); batches >= keys {
		t.Errorf("client batching stats show no coalescing: %d batches / %d keys", batches, keys)
	}
}

// TestRemoteDeadServerRotation pins the circuit behaviour: an op that
// hits a dead server quarantines it and rotates to the next one, and
// later ops skip the quarantined server without dialing it at all.
func TestRemoteDeadServerRotation(t *testing.T) {
	srvA := memcachetest.Start(t)
	srvB := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{
		Servers:      []string{srvA.Addr(), srvB.Addr()},
		DeadCooldown: time.Minute,
	})

	// Find keys homed on each server so the test is placement-exact.
	keyOn := func(want string) string {
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("key-%d", i)
			if r.pickServers(key)[0].addr == want {
				return key
			}
		}
		t.Fatalf("no key homed on %s", want)
		return ""
	}
	keyA := keyOn(srvA.Addr())

	srvA.Close()

	// The Set dials dead A, quarantines it, and lands on B.
	mustSet(t, r, keyA, "stored-anyway")
	if r.Rotations() == 0 {
		t.Fatal("set on a dead home server did not rotate")
	}
	// The Get now skips A without dialing and finds the value on B.
	if v, ok := mustGet(t, r, keyA); !ok || string(v) != "stored-anyway" {
		t.Fatalf("rotated get = %q %v", v, ok)
	}
	if got := srvB.Counts(); got.Sets != 1 {
		t.Errorf("server B saw %d sets, want 1", got.Sets)
	}
	if st := r.Stats()[0]; st.Errors != 0 {
		t.Errorf("rotation surfaced errors: %+v", st)
	}
}

// TestRemoteAllServersDead pins the degraded mode: every op errors
// (callers treat that as a miss), nothing hangs, and the error counters
// move.
func TestRemoteAllServersDead(t *testing.T) {
	srv := memcachetest.Start(t)
	addr := srv.Addr()
	srv.Close()
	r := newRemote(t, RemoteConfig{Servers: []string{addr}, DeadCooldown: time.Minute})

	if err := r.Set(ctx, "k", []byte("v")); err == nil {
		t.Fatal("Set against a dead server succeeded")
	}
	if _, ok, err := r.Get(ctx, "k"); err == nil || ok {
		t.Fatalf("Get against a dead server = %v %v", ok, err)
	}
	st := r.Stats()[0]
	if st.Errors == 0 {
		t.Errorf("dead-server ops did not count errors: %+v", st)
	}
}

func TestRemoteCloseThenOp(t *testing.T) {
	srv := memcachetest.Start(t)
	r, err := NewRemote(RemoteConfig{Servers: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	mustSet(t, r, "k", "v")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := r.Get(ctx, "k"); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := r.Set(ctx, "k", []byte("v")); err == nil {
		t.Error("Set after Close succeeded")
	}
}

func TestRemoteRejectsBadKeys(t *testing.T) {
	srv := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}})
	for _, key := range []string{"", "has space", "has\nnewline", strings.Repeat("k", 251)} {
		if err := r.Set(ctx, key, []byte("v")); err == nil {
			t.Errorf("Set accepted invalid key %q", key)
		}
		if _, _, err := r.Get(ctx, key); err == nil {
			t.Errorf("Get accepted invalid key %q", key)
		}
	}
}

// garbageServer accepts memcached connections and answers every request
// line with protocol nonsense — the client must surface errors, discard
// the poisoned connection and count the failures, never hang or panic.
func garbageServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					// Consume a set's data block so the next read sees a
					// command line, then answer garbage either way.
					var key string
					var flags uint32
					var exptime int64
					var size int
					if n, _ := fmt.Sscanf(line, "set %s %d %d %d", &key, &flags, &exptime, &size); n == 4 {
						if _, err := readBlock(br, size+2); err != nil {
							return
						}
					}
					if _, err := c.Write([]byte("BANANA 0 0\r\n")); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRemoteGarbageResponses: malformed server responses are errors,
// not corrupt hits — and both op paths count them.
func TestRemoteGarbageResponses(t *testing.T) {
	r := newRemote(t, RemoteConfig{
		Servers:      []string{garbageServer(t)},
		DeadCooldown: time.Nanosecond, // re-dial every op; never report "all dead"
	})
	if _, ok, err := r.Get(ctx, "key"); err == nil || ok {
		t.Errorf("Get over garbage protocol = ok=%v err=%v, want error", ok, err)
	}
	if err := r.Set(ctx, "key", []byte("value")); err == nil ||
		!strings.Contains(err.Error(), "BANANA") {
		t.Errorf("Set over garbage protocol = %v, want server-answered error", err)
	}
	st := r.Stats()[0]
	if st.Errors < 2 {
		t.Errorf("Errors = %d, want >= 2 (one per failed op)", st.Errors)
	}
	if st.Hits != 0 || st.Sets != 0 {
		t.Errorf("garbage responses counted as successes: %+v", st)
	}
}

// TestRemoteOversizedValueRejected: values beyond the protocol bound
// fail fast client-side without touching the network.
func TestRemoteOversizedValueRejected(t *testing.T) {
	srv := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}})
	if err := r.Set(ctx, "key", make([]byte, maxValLen+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
	if n := srv.Counts().Sets; n != 0 {
		t.Errorf("oversized value reached the server (%d sets)", n)
	}
}

// TestRemoteStatsEntries pins that Stats reports the server-side entry
// count: the sum of `stats` curr_items across live servers, so capacity
// dashboards see the shared tier's population instead of a constant 0.
func TestRemoteStatsEntries(t *testing.T) {
	a, b := memcachetest.Start(t), memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{a.Addr(), b.Addr()}})
	for i := 0; i < 5; i++ {
		mustSet(t, r, fmt.Sprintf("key-%d", i), "value")
	}
	if st := r.Stats()[0]; st.Entries != 5 {
		t.Fatalf("Entries = %d, want 5 (curr_items summed across servers)", st.Entries)
	}
}

// TestRemoteStatsEntriesCached pins the 1s stats cache: a second Stats
// call inside the refresh window reuses the last count instead of
// re-querying every server.
func TestRemoteStatsEntriesCached(t *testing.T) {
	srv := memcachetest.Start(t)
	r := newRemote(t, RemoteConfig{Servers: []string{srv.Addr()}})
	mustSet(t, r, "one", "value")
	if st := r.Stats()[0]; st.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", st.Entries)
	}
	mustSet(t, r, "two", "value")
	if st := r.Stats()[0]; st.Entries != 1 {
		t.Fatalf("Entries = %d inside the refresh window, want the cached 1", st.Entries)
	}
}
