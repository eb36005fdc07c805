package resultstore

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// bareStore hides its inner store's Keys: a Store without the Scanner
// capability.
type bareStore struct{ Store }

// scannedSorted enumerates s via ScanKeys and returns the sorted keys,
// failing the test when the capability is absent or the scan errors.
func scannedSorted(t *testing.T, s Store, filter func(string) bool) []string {
	t.Helper()
	keys, ok, err := ScanKeys(ctx, s, filter)
	if !ok || err != nil {
		t.Fatalf("ScanKeys = ok %v err %v, want a scannable store", ok, err)
	}
	sort.Strings(keys)
	return keys
}

// TestScanKeysRemoteUnsupported: a store without Keys reports the
// capability absent instead of an empty key set.
func TestScanKeysRemoteUnsupported(t *testing.T) {
	r := bareStore{NewMemory(8)}
	mustSet(t, r, "key", "value")
	keys, ok, err := ScanKeys(ctx, r, nil)
	if ok {
		t.Fatalf("store without Keys claims the Scanner capability (keys=%v)", keys)
	}
	if err == nil {
		t.Fatal("ScanKeys on a store without Keys: want ErrScanUnsupported, got nil error")
	}
}

func TestScanKeysMemoryEviction(t *testing.T) {
	m := NewMemory(2)
	mustSet(t, m, "a", "1")
	mustSet(t, m, "b", "2")
	mustSet(t, m, "c", "3") // evicts a (LRU)
	got := scannedSorted(t, m, nil)
	want := []string{"b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keys after eviction = %v, want %v", got, want)
	}
}

func TestScanKeysFilter(t *testing.T) {
	m := NewMemory(16)
	for i := 0; i < 6; i++ {
		mustSet(t, m, fmt.Sprintf("key-%d", i), "v")
	}
	got := scannedSorted(t, m, func(k string) bool { return k == "key-2" || k == "key-4" })
	want := []string{"key-2", "key-4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered keys = %v, want %v", got, want)
	}
}

// TestScanKeysTieredSkipsRemoteTier pins the repair fallback shape: a
// memory front over a back tier without Keys scans as just its memory
// tier instead of refusing outright.
func TestScanKeysTieredSkipsRemoteTier(t *testing.T) {
	back := bareStore{NewMemory(16)}
	s := NewTiered(NewMemory(16), back)
	mustSet(t, s, "both", "v") // write-through: memory + back
	if err := back.Set(ctx, "back-only", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got := scannedSorted(t, s, nil)
	want := []string{"both"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tiered keys = %v, want just the memory tier %v", got, want)
	}
}

// TestScanKeysDiskDuringWrites hammers Keys concurrently with Sets of
// held keys and of new ones across segment rotation: every snapshot must
// hold each seeded key exactly once.
func TestScanKeysDiskDuringWrites(t *testing.T) {
	d := openDisk(t, t.TempDir(), DiskConfig{SegmentBytes: 512, MaxBytes: 1 << 20})
	const keys = 8
	for i := 0; i < keys; i++ {
		mustSet(t, d, fmt.Sprintf("key-%d", i), "seed-value-padding-padding")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("key-%d", i%keys) // held: appends nothing
			if i%2 == 1 && i < 4000 {
				key = fmt.Sprintf("new-%d", i) // fresh: appends and rotates
			}
			if err := d.Set(ctx, key, []byte(fmt.Sprintf("round-%d-padding-padding", i))); err != nil {
				t.Errorf("Set: %v", err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		got := scannedSorted(t, d, nil)
		seeded := 0
		for i, k := range got {
			if i > 0 && k == got[i-1] {
				t.Fatalf("round %d: duplicate key %q", round, k)
			}
			if strings.HasPrefix(k, "key-") {
				seeded++
			}
		}
		if seeded != keys {
			t.Fatalf("round %d: scanned %d seeded keys, want %d", round, seeded, keys)
		}
	}
	close(stop)
	wg.Wait()
}
