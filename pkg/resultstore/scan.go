package resultstore

import (
	"context"
	"errors"
)

// Scanner is the optional capability of enumerating a store's live key
// set — the keys a Get would currently hit, after eviction.  Memory,
// Disk and Tiered implement it; a Store that does not (say, a wrapper
// that hides its inner store's Keys) is discovered with ScanKeys.  The
// filter restricts the result to the keys it accepts; nil means every
// key.  No service code enumerates keys: it stays because the benchmark
// module (bench/trace.go, bench/bench_test.go) builds against it.
type Scanner interface {
	Keys(ctx context.Context, filter func(key string) bool) ([]string, error)
}

// ErrScanUnsupported reports that a store (or every tier of a tiered
// store) cannot enumerate its keys.
var ErrScanUnsupported = errors.New("resultstore: store does not support key enumeration")

// ScanKeys enumerates s's live keys when the store supports it.
// ok=false means the capability is absent (s is not a Scanner, or is a
// Tiered store with no scannable tier); err then wraps
// ErrScanUnsupported.  The returned order is unspecified.
func ScanKeys(ctx context.Context, s Store, filter func(key string) bool) (keys []string, ok bool, err error) {
	sc, isScanner := s.(Scanner)
	if !isScanner {
		return nil, false, ErrScanUnsupported
	}
	keys, err = sc.Keys(ctx, filter)
	if errors.Is(err, ErrScanUnsupported) {
		return nil, false, err
	}
	if err != nil {
		return nil, true, err
	}
	return keys, true, nil
}

// Keys enumerates the live key set of the memory tier.
func (m *Memory) Keys(_ context.Context, filter func(key string) bool) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	out := make([]string, 0, len(m.entries))
	for k := range m.entries {
		if filter == nil || filter(k) {
			out = append(out, k)
		}
	}
	return out, nil
}

// Keys enumerates the live key set of the disk store: exactly the keys a
// Get would hit, after replay and whole-segment eviction.  The index
// snapshot is taken under the read lock, so a scan concurrent with Sets
// sees each live key once.
func (d *Disk) Keys(_ context.Context, filter func(key string) bool) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, errClosed
	}
	out := make([]string, 0, len(d.index))
	for k := range d.index {
		if filter == nil || filter(k) {
			out = append(out, k)
		}
	}
	return out, nil
}

// Keys enumerates the union of the scannable tiers' live key sets.  A
// tier without the capability is skipped (a Memory front over an
// unscannable back tier scans as just its memory tier); if no tier is
// scannable the error wraps ErrScanUnsupported.  A scannable tier's failure surfaces only
// when every scannable tier failed, mirroring Peek's degraded contract.
func (t *Tiered) Keys(ctx context.Context, filter func(key string) bool) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	var firstErr error
	scannable, succeeded := 0, 0
	for _, tier := range []Store{t.front, t.back} {
		sc, isScanner := tier.(Scanner)
		if !isScanner {
			continue
		}
		scannable++
		keys, err := sc.Keys(ctx, filter)
		if err != nil {
			if errors.Is(err, ErrScanUnsupported) {
				scannable--
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		succeeded++
		for _, k := range keys {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	if scannable == 0 {
		return nil, ErrScanUnsupported
	}
	if succeeded == 0 {
		return nil, firstErr
	}
	return out, nil
}
