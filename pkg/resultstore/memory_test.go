package resultstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

var ctx = context.Background()

func mustGet(t *testing.T, s Store, key string) ([]byte, bool) {
	t.Helper()
	val, ok, err := s.Get(ctx, key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return val, ok
}

func mustSet(t *testing.T, s Store, key, val string) {
	t.Helper()
	if err := s.Set(ctx, key, []byte(val)); err != nil {
		t.Fatalf("Set(%q): %v", key, err)
	}
}

func TestMemoryEviction(t *testing.T) {
	m := NewMemory(2)
	mustSet(t, m, "a", "1")
	mustSet(t, m, "b", "2")
	if _, ok := mustGet(t, m, "a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a is now most recent; adding c evicts b.
	mustSet(t, m, "c", "3")
	if _, ok := mustGet(t, m, "b"); ok {
		t.Error("b not evicted")
	}
	if v, ok := mustGet(t, m, "a"); !ok || string(v) != "1" {
		t.Error("a lost")
	}
	if v, ok := mustGet(t, m, "c"); !ok || string(v) != "3" {
		t.Error("c lost")
	}
	if m.Len() != 2 {
		t.Errorf("len = %d", m.Len())
	}
}

// TestMemoryUpdateExisting: a Set of a held key keeps its value and
// only refreshes its recency, so the next eviction takes another key.
func TestMemoryUpdateExisting(t *testing.T) {
	m := NewMemory(2)
	mustSet(t, m, "a", "1")
	mustSet(t, m, "b", "2")
	mustSet(t, m, "a", "changed") // a is now most recent
	if m.Len() != 2 {
		t.Fatalf("len = %d after a second Set of a held key", m.Len())
	}
	mustSet(t, m, "c", "3") // evicts b, the least recent
	if v, ok := mustGet(t, m, "a"); !ok || string(v) != "1" {
		t.Errorf("a = %q %v, want the held value", v, ok)
	}
	if _, ok := mustGet(t, m, "b"); ok {
		t.Error("b survived: the second Set of a did not refresh it")
	}
	if st := m.Stats()[0]; st.Sets != 4 {
		t.Errorf("sets = %d, want every call counted", st.Sets)
	}
}

func TestMemoryStats(t *testing.T) {
	m := NewMemory(4)
	mustSet(t, m, "a", "1")
	mustGet(t, m, "a")
	mustGet(t, m, "a")
	mustGet(t, m, "missing")
	st := m.Stats()
	if len(st) != 1 || st[0].Tier != "memory" {
		t.Fatalf("stats = %+v, want one memory tier", st)
	}
	if st[0].Hits != 2 || st[0].Misses != 1 || st[0].Sets != 1 || st[0].Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 set / 1 entry", st[0])
	}
}

func TestMemoryPeekInvisible(t *testing.T) {
	m := NewMemory(4)
	mustSet(t, m, "a", "1")
	if v, ok, err := m.Peek(ctx, "a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Peek(a) = %q %v %v", v, ok, err)
	}
	if _, ok, err := m.Peek(ctx, "missing"); err != nil || ok {
		t.Fatalf("Peek(missing) = %v %v", ok, err)
	}
	if st := m.Stats()[0]; st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Peek perturbed counters: %+v", st)
	}
}

func TestMemoryDisabled(t *testing.T) {
	m := NewMemory(0)
	mustSet(t, m, "a", "1")
	if _, ok := mustGet(t, m, "a"); ok {
		t.Error("disabled store returned a hit")
	}
	if m.Len() != 0 {
		t.Error("disabled store stored an entry")
	}
}

func TestMemoryCapacityBound(t *testing.T) {
	m := NewMemory(8)
	for i := 0; i < 100; i++ {
		mustSet(t, m, fmt.Sprintf("k%d", i), "v")
	}
	if m.Len() != 8 {
		t.Errorf("len = %d, want capacity 8", m.Len())
	}
}

func TestMemoryClosedErrors(t *testing.T) {
	m := NewMemory(4)
	mustSet(t, m, "a", "1")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(ctx, "a"); err == nil {
		t.Error("Get after Close succeeded")
	}
	if err := m.Set(ctx, "b", []byte("2")); err == nil {
		t.Error("Set after Close succeeded")
	}
	if m.Len() != 0 {
		t.Errorf("closed store still holds %d entries", m.Len())
	}
}

// TestMemoryConcurrent exercises Get/Set/Peek/Stats concurrently; the
// race detector is the assertion.
func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%32)
				m.Set(ctx, key, []byte{byte(i)})
				m.Get(ctx, key)
				m.Peek(ctx, key)
				m.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestTotals pins the fold from per-tier stats to the store-level
// counters reported by /v1/cache/stats.
func TestTotals(t *testing.T) {
	entries, hits, misses := Totals([]TierStats{
		{Tier: "memory", Entries: 3, Hits: 10, Misses: 7},
		{Tier: "disk", Entries: 9, Hits: 5, Misses: 2},
	})
	if entries != 9 || hits != 15 || misses != 2 {
		t.Errorf("Totals = %d/%d/%d, want 9 entries, 15 hits, 2 misses", entries, hits, misses)
	}
	if e, h, m := Totals(nil); e != 0 || h != 0 || m != 0 {
		t.Errorf("Totals(nil) = %d/%d/%d, want zeros", e, h, m)
	}
}
