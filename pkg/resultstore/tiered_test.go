package resultstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestTiered(t *testing.T) (*Tiered, *Memory, *Disk) {
	t.Helper()
	mem := NewMemory(8)
	disk := openDisk(t, t.TempDir(), DiskConfig{})
	return NewTiered(mem, disk), mem, disk
}

func TestTieredWriteThrough(t *testing.T) {
	tiered, mem, disk := newTestTiered(t)
	mustSet(t, tiered, "a", "alpha")
	if v, ok, _ := mem.Peek(ctx, "a"); !ok || string(v) != "alpha" {
		t.Errorf("memory tier missing write-through value: %q %v", v, ok)
	}
	if v, ok, _ := disk.Peek(ctx, "a"); !ok || string(v) != "alpha" {
		t.Errorf("disk tier missing write-through value: %q %v", v, ok)
	}
	if v, ok := mustGet(t, tiered, "a"); !ok || string(v) != "alpha" {
		t.Errorf("tiered get = %q %v", v, ok)
	}
}

// TestTieredPromotion fills only the disk tier (as after a restart: the
// memory tier died with the process) and asserts the first Get serves
// from disk and refills memory, so the second is a memory hit.
func TestTieredPromotion(t *testing.T) {
	tiered, mem, disk := newTestTiered(t)
	mustSet(t, disk, "cold", "from-disk")

	if v, ok := mustGet(t, tiered, "cold"); !ok || string(v) != "from-disk" {
		t.Fatalf("tiered get = %q %v", v, ok)
	}
	if v, ok, _ := mem.Peek(ctx, "cold"); !ok || string(v) != "from-disk" {
		t.Errorf("disk hit not promoted into memory: %q %v", v, ok)
	}
	mustGet(t, tiered, "cold") // now a memory hit

	st := tiered.Stats()
	if len(st) != 2 || st[0].Tier != "memory" || st[1].Tier != "disk" {
		t.Fatalf("stats = %+v, want [memory disk]", st)
	}
	if st[0].Hits != 1 || st[0].Misses != 1 {
		t.Errorf("memory tier = %+v, want 1 hit / 1 miss", st[0])
	}
	if st[1].Hits != 1 || st[1].Misses != 0 {
		t.Errorf("disk tier = %+v, want 1 hit / 0 misses", st[1])
	}
}

func TestTieredMissCountsOncePerTier(t *testing.T) {
	tiered, _, _ := newTestTiered(t)
	if _, ok := mustGet(t, tiered, "nope"); ok {
		t.Fatal("empty store hit")
	}
	entries, hits, misses := Totals(tiered.Stats())
	if entries != 0 || hits != 0 || misses != 1 {
		t.Errorf("Totals = %d/%d/%d, want 0 entries, 0 hits, 1 miss", entries, hits, misses)
	}
}

func TestTieredPeekInvisible(t *testing.T) {
	tiered, _, _ := newTestTiered(t)
	mustSet(t, tiered, "a", "1")
	if v, ok, err := tiered.Peek(ctx, "a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Peek = %q %v %v", v, ok, err)
	}
	tiered.Peek(ctx, "missing")
	for _, st := range tiered.Stats() {
		if st.Hits != 0 || st.Misses != 0 {
			t.Errorf("Peek perturbed %s counters: %+v", st.Tier, st)
		}
	}
}

// TestTieredDisabledFront degrades gracefully: with a zero-capacity
// memory tier every read is served by the disk tier.
func TestTieredDisabledFront(t *testing.T) {
	disk := openDisk(t, t.TempDir(), DiskConfig{})
	tiered := NewTiered(NewMemory(0), disk)
	mustSet(t, tiered, "a", "alpha")
	if v, ok := mustGet(t, tiered, "a"); !ok || string(v) != "alpha" {
		t.Errorf("get = %q %v", v, ok)
	}
	if st := tiered.Stats(); st[1].Hits != 1 {
		t.Errorf("disk tier did not serve the read: %+v", st)
	}
}

// failStore errors on every operation — a stand-in for a broken tier.
type failStore struct{}

func (failStore) Get(context.Context, string) ([]byte, bool, error) {
	return nil, false, errors.New("tier down")
}
func (failStore) Set(context.Context, string, []byte) error { return errors.New("tier down") }
func (failStore) Stats() []TierStats                        { return []TierStats{{Tier: "memory"}} }
func (failStore) Close() error                              { return nil }

// TestTieredFrontFailureFallsThrough pins the Store contract applied
// between tiers: a failing front tier is treated as a missing one, so
// a back-tier hit is still served; a failing back tier leaves the front
// serving, degraded but not down.
func TestTieredFrontFailureFallsThrough(t *testing.T) {
	t.Run("failing-front", func(t *testing.T) {
		disk := openDisk(t, t.TempDir(), DiskConfig{})
		mustSet(t, disk, "a", "alpha")
		tiered := NewTiered(failStore{}, disk)
		if v, ok := mustGet(t, tiered, "a"); !ok || string(v) != "alpha" {
			t.Errorf("front-tier failure masked a back-tier hit: %q %v", v, ok)
		}
		if v, ok, err := tiered.Peek(ctx, "a"); err != nil || !ok || string(v) != "alpha" {
			t.Errorf("Peek through failing front = %q %v %v", v, ok, err)
		}
		// Set still reports the partial failure while landing in the back.
		if err := tiered.Set(ctx, "b", []byte("beta")); err == nil {
			t.Error("Set with a failing front tier reported no error")
		}
		if v, ok, _ := disk.Peek(ctx, "b"); !ok || string(v) != "beta" {
			t.Errorf("back tier missed the write-through: %q %v", v, ok)
		}
	})
	t.Run("failing-back", func(t *testing.T) {
		mem := NewMemory(8)
		tiered := NewTiered(mem, failStore{})
		// Set reports the partial failure while landing in the front.
		if err := tiered.Set(ctx, "a", []byte("alpha")); err == nil {
			t.Error("Set with a failing back tier reported no error")
		}
		if v, ok := mustGet(t, tiered, "a"); !ok || string(v) != "alpha" {
			t.Errorf("front-tier hit with a failing back = %q %v", v, ok)
		}
		if v, ok, err := tiered.Peek(ctx, "a"); err != nil || !ok || string(v) != "alpha" {
			t.Errorf("Peek with a failing back = %q %v %v", v, ok, err)
		}
		// A front miss surfaces the back's error to Get, which callers
		// treat as a miss; Peek, the health probe, stays clean.
		if _, ok, err := tiered.Get(ctx, "missing"); err == nil || ok {
			t.Errorf("Get of a missing key = %v %v, want the back tier's error", ok, err)
		}
		if _, ok, err := tiered.Peek(ctx, "missing"); err != nil || ok {
			t.Errorf("Peek of a missing key = %v %v, want a clean miss", ok, err)
		}
	})
}

func TestTieredConcurrent(t *testing.T) {
	tiered, _, _ := newTestTiered(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", (g*5+i)%16)
				tiered.Set(ctx, key, []byte{byte(i)})
				tiered.Get(ctx, key)
				tiered.Stats()
			}
		}(g)
	}
	wg.Wait()
}
