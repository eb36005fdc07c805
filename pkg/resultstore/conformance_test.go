package resultstore

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The store conformance suite: one harness, every backend.  Each
// backend registers an opener (and, when it has durable state, a
// reopener standing in for a process restart); the suite then pins the
// Store contract — round trips, first-write-wins, Peek invisibility,
// Stats accounting and its uniform semantics (op counters are
// process-lifetime, Entries/Bytes describe what the open store serves),
// Close-then-op failures, and concurrent use under -race.  A future
// backend only has to add a case here to inherit the whole contract.

type conformanceCase struct {
	name string
	// open returns a fresh, empty store.
	open func(t *testing.T) Store
	// reopen, when non-nil, closes s and returns a successor over the
	// same durable state — a process restart.  Backends without durable
	// state leave it nil.
	reopen func(t *testing.T, s Store) Store
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{
			name: "memory",
			open: func(t *testing.T) Store { return NewMemory(1024) },
		},
		{
			name: "disk",
			open: func(t *testing.T) Store {
				return openDisk(t, t.TempDir(), DiskConfig{})
			},
			reopen: func(t *testing.T, s Store) Store {
				d := s.(*Disk)
				dir := d.cfg.Dir
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				return openDisk(t, dir, DiskConfig{})
			},
		},
		{
			name: "tiered",
			open: func(t *testing.T) Store {
				return NewTiered(NewMemory(1024), openDisk(t, t.TempDir(), DiskConfig{}))
			},
			reopen: func(t *testing.T, s Store) Store {
				d := s.(*Tiered).back.(*Disk)
				dir := d.cfg.Dir
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return NewTiered(NewMemory(1024), openDisk(t, dir, DiskConfig{}))
			},
		},
	}
}

// forEachBackend runs fn as a subtest per backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, tc conformanceCase)) {
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) { fn(t, tc) })
	}
}

func opCounters(s Store) (hits, misses, sets uint64) {
	for _, ts := range s.Stats() {
		hits += ts.Hits
		misses += ts.Misses
		sets += ts.Sets
	}
	return hits, misses, sets
}

func TestConformanceRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		mustSet(t, s, "alpha", "one")
		mustSet(t, s, "beta", "two")
		if v, ok := mustGet(t, s, "alpha"); !ok || string(v) != "one" {
			t.Errorf("alpha = %q %v", v, ok)
		}
		if v, ok := mustGet(t, s, "beta"); !ok || string(v) != "two" {
			t.Errorf("beta = %q %v", v, ok)
		}
		if _, ok := mustGet(t, s, "gamma"); ok {
			t.Error("unset key hit")
		}
	})
}

// TestConformanceFirstWriteWins pins the write-once contract: a Set of
// a key the store already holds keeps the held bytes, while Sets still
// counts every call.  After a reopen the durable backends serve the
// first write, and a further Set keeps it.
func TestConformanceFirstWriteWins(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		for i := 0; i < 5; i++ {
			mustSet(t, s, "key", fmt.Sprintf("value-%d", i))
		}
		if v, ok := mustGet(t, s, "key"); !ok || string(v) != "value-0" {
			t.Errorf("key = %q %v, want the first write", v, ok)
		}
		for _, ts := range s.Stats() {
			if ts.Sets != 5 {
				t.Errorf("tier %s counts %d sets, want all 5 calls", ts.Tier, ts.Sets)
			}
		}
		if tc.reopen == nil {
			return
		}
		s = tc.reopen(t, s)
		if v, ok := mustGet(t, s, "key"); !ok || string(v) != "value-0" {
			t.Errorf("key after reopen = %q %v, want the first write", v, ok)
		}
		mustSet(t, s, "key", "after-reopen")
		if v, ok := mustGet(t, s, "key"); !ok || string(v) != "value-0" {
			t.Errorf("key after a post-reopen Set = %q %v, want the first write", v, ok)
		}
	})
}

// TestConformanceDeleteReplaces pins the Deleter capability: a deleted
// key misses, the next Set stores the new bytes (write-once applies to
// held keys only), neither Delete moves the op counters, and durable
// backends serve the replacement after a reopen.  Deleting a key the
// store does not hold, or after Close, behaves like the other ops.
func TestConformanceDeleteReplaces(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		mustSet(t, s, "key", "unreadable")
		mustSet(t, s, "other", "kept")
		if err := Delete(ctx, s, "key"); err != nil {
			t.Fatal(err)
		}
		if err := Delete(ctx, s, "missing"); err != nil {
			t.Fatalf("Delete of an absent key: %v", err)
		}
		if hits, misses, _ := opCounters(s); hits != 0 || misses != 0 {
			t.Errorf("Delete moved the counters: hits=%d misses=%d", hits, misses)
		}
		if v, ok := mustGet(t, s, "key"); ok {
			t.Fatalf("deleted key still served %q", v)
		}
		if entries, _, _ := Totals(s.Stats()); entries != 1 {
			t.Errorf("entries after Delete = %d, want 1", entries)
		}
		mustSet(t, s, "key", "recomputed")
		if v, ok := mustGet(t, s, "key"); !ok || string(v) != "recomputed" {
			t.Errorf("key after Delete and Set = %q %v, want the new bytes", v, ok)
		}
		if tc.reopen != nil {
			s = tc.reopen(t, s)
			for key, want := range map[string]string{"key": "recomputed", "other": "kept"} {
				if v, ok := mustGet(t, s, key); !ok || string(v) != want {
					t.Errorf("%s after reopen = %q %v, want %q", key, v, ok, want)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := Delete(ctx, s, "key"); err == nil {
			t.Error("Delete after Close succeeded")
		}
	})
}

func TestConformancePeekInvisible(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		mustSet(t, s, "key", "value")
		if v, ok, err := Peek(ctx, s, "key"); err != nil || !ok || string(v) != "value" {
			t.Fatalf("Peek hit = %q %v %v", v, ok, err)
		}
		if _, ok, err := Peek(ctx, s, "missing"); err != nil || ok {
			t.Fatalf("Peek miss = %v %v", ok, err)
		}
		hits, misses, _ := opCounters(s)
		if hits != 0 || misses != 0 {
			t.Errorf("Peek moved the counters: hits=%d misses=%d", hits, misses)
		}
	})
}

func TestConformanceStatsAccounting(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		for i := 0; i < 3; i++ {
			mustSet(t, s, fmt.Sprintf("key-%d", i), "value")
		}
		for i := 0; i < 3; i++ {
			mustGet(t, s, fmt.Sprintf("key-%d", i)) // hits
		}
		mustGet(t, s, "missing-1")
		mustGet(t, s, "missing-2")

		entries, hits, misses := Totals(s.Stats())
		if hits != 3 {
			t.Errorf("hits = %d, want 3", hits)
		}
		if misses != 2 {
			t.Errorf("misses = %d, want 2", misses)
		}
		if entries != 3 {
			t.Errorf("entries = %d, want 3", entries)
		}
		if _, _, sets := opCounters(s); sets < 3 {
			t.Errorf("sets = %d, want >= 3", sets)
		}
	})
}

func TestConformanceCloseThenOp(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		mustSet(t, s, "key", "value")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close is not idempotent: %v", err)
		}
		if _, _, err := s.Get(ctx, "key"); err == nil {
			t.Error("Get after Close succeeded")
		}
		if err := s.Set(ctx, "key", []byte("value")); err == nil {
			t.Error("Set after Close succeeded")
		}
		// Entries/Bytes describe what the open store can serve — after
		// Close, nothing.
		for _, ts := range s.Stats() {
			if ts.Entries != 0 || ts.Bytes != 0 {
				t.Errorf("tier %s still reports entries=%d bytes=%d after Close",
					ts.Tier, ts.Entries, ts.Bytes)
			}
		}
	})
}

// TestConformanceStatsAfterReopen pins the uniform restart semantics:
// op counters are process-lifetime (zero in the successor), while the
// durable backends serve everything the predecessor stored.
func TestConformanceStatsAfterReopen(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		if tc.reopen == nil {
			t.Skip("no durable state to reopen")
		}
		s := tc.open(t)
		for i := 0; i < 4; i++ {
			mustSet(t, s, fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i))
		}
		mustGet(t, s, "key-0")
		mustGet(t, s, "nope")

		s = tc.reopen(t, s)
		if hits, misses, sets := opCounters(s); hits != 0 || misses != 0 || sets != 0 {
			t.Errorf("reopened store inherited op counters: hits=%d misses=%d sets=%d",
				hits, misses, sets)
		}
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("key-%d", i)
			if v, ok := mustGet(t, s, key); !ok || string(v) != fmt.Sprintf("value-%d", i) {
				t.Errorf("%s after reopen = %q %v", key, v, ok)
			}
		}
		if entries, _, _ := Totals(s.Stats()); entries != 4 {
			t.Errorf("entries after reopen = %d, want 4", entries)
		}
	})
}

// TestConformanceScanKeys pins the Scanner capability across backends:
// every store enumerates exactly the live key set (one entry per key,
// filter honored), and durable backends enumerate the same set after a
// reopen.
func TestConformanceScanKeys(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		want := []string{"alpha", "beta", "gamma"}
		for _, k := range want {
			mustSet(t, s, k, "v1")
		}
		mustSet(t, s, "alpha", "v2") // a second Set must not duplicate the key

		keys, ok, err := ScanKeys(ctx, s, nil)
		if !ok || err != nil {
			t.Fatalf("ScanKeys = ok %v err %v", ok, err)
		}
		if sort.Strings(keys); !reflect.DeepEqual(keys, want) {
			t.Fatalf("keys = %v, want %v", keys, want)
		}

		filtered, _, err := ScanKeys(ctx, s, func(k string) bool { return k == "beta" })
		if err != nil || !reflect.DeepEqual(filtered, []string{"beta"}) {
			t.Fatalf("filtered keys = %v %v, want [beta]", filtered, err)
		}

		if tc.reopen != nil {
			s = tc.reopen(t, s)
			keys, ok, err = ScanKeys(ctx, s, nil)
			if !ok || err != nil {
				t.Fatalf("ScanKeys after reopen = ok %v err %v", ok, err)
			}
			if sort.Strings(keys); !reflect.DeepEqual(keys, want) {
				t.Fatalf("keys after reopen = %v, want %v", keys, want)
			}
		}

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ScanKeys(ctx, s, nil); err == nil {
			t.Error("ScanKeys after Close succeeded")
		}
	})
}

func TestConformanceConcurrent(t *testing.T) {
	forEachBackend(t, func(t *testing.T, tc conformanceCase) {
		s := tc.open(t)
		const (
			goroutines = 8
			rounds     = 25
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				own := fmt.Sprintf("own-%d", g)
				for i := 0; i < rounds; i++ {
					if err := s.Set(ctx, own, []byte(fmt.Sprintf("%d-%d", g, i))); err != nil {
						t.Errorf("Set(%s): %v", own, err)
						return
					}
					if _, _, err := s.Get(ctx, own); err != nil {
						t.Errorf("Get(%s): %v", own, err)
						return
					}
					// Everyone also hammers one shared key.
					s.Set(ctx, "shared", []byte(fmt.Sprintf("%d-%d", g, i)))
					s.Get(ctx, "shared")
					Peek(ctx, s, "shared")
				}
			}(g)
		}
		wg.Wait()
		if _, ok := mustGet(t, s, "shared"); !ok {
			t.Error("shared key lost")
		}
	})
}
