package resultstore

import "context"

// Store is a response cache over canonical request keys.  Get and Set
// are context-aware for implementations that may block on I/O; the
// in-memory store ignores the context.  Implementations must be safe
// for concurrent use.
type Store interface {
	// Get returns the stored response for key.  A missing key is
	// (nil, false, nil); an error reports a store failure (callers
	// should treat it as a miss and keep serving).
	Get(ctx context.Context, key string) ([]byte, bool, error)
	// Set stores val under key.  Results are write-once — a result's
	// bytes are a pure function of its key — so a Set of a key the
	// store already holds keeps the held bytes.
	Set(ctx context.Context, key string, val []byte) error
	// Stats returns cumulative per-tier counters, front tier first.
	// Single-tier stores return one element.
	//
	// Semantics are uniform across backends: the op counters (Hits,
	// Misses, Sets, Errors) are process-lifetime — they start at zero
	// when the store is opened, including a Disk store reopened over
	// existing segments — while Entries and Bytes always describe what
	// the open store can serve right now (so both are zero after Close,
	// and a reopened Disk store reports the replayed entries).  The
	// conformance suite pins this for every backend.
	Stats() []TierStats
	// Close releases the store's resources.  Get and Set fail after
	// Close.
	Close() error
}

// Peeker is the optional capability of reading a key without touching
// the hit/miss counters or the recency order — for internal re-checks
// that must stay invisible in the reported stats.
type Peeker interface {
	Peek(ctx context.Context, key string) ([]byte, bool, error)
}

// Peek reads key from s without perturbing its stats when s supports
// it, falling back to a plain (counted) Get.
func Peek(ctx context.Context, s Store, key string) ([]byte, bool, error) {
	if p, ok := s.(Peeker); ok {
		return p.Peek(ctx, key)
	}
	return s.Get(ctx, key)
}

// Deleter is the optional capability of dropping a key.  Results are
// write-once, so a Set never replaces held bytes; a caller that proved
// the held bytes unreadable (a typed decode refused them) deletes them
// first, and its recompute's Set then stores readable ones.
type Deleter interface {
	Delete(ctx context.Context, key string) error
}

// Delete drops key from s when s supports it.  On a store without the
// capability it is a no-op: the held bytes stay.
func Delete(ctx context.Context, s Store, key string) error {
	if d, ok := s.(Deleter); ok {
		return d.Delete(ctx, key)
	}
	return nil
}

// TierStats are one tier's cumulative counters.
type TierStats struct {
	// Tier names the tier: "memory" or "disk".
	Tier string `json:"tier"`
	// Entries is the number of distinct keys currently held.
	Entries int `json:"entries"`
	// Bytes is the bytes held on disk (0 for the memory tier).
	Bytes int64 `json:"bytes,omitempty"`
	// Hits counts Gets served by this tier.
	Hits uint64 `json:"hits"`
	// Misses counts Gets this tier was consulted for and missed.
	Misses uint64 `json:"misses"`
	// Sets counts Set calls into this tier (including tier promotions
	// and Sets of keys the tier already held).
	Sets uint64 `json:"sets"`
	// Errors counts failed reads and writes.
	Errors uint64 `json:"errors,omitempty"`
}

// Totals folds per-tier stats into the store-level counters reported at
// the top of /v1/cache/stats: entries is the largest tier (the back
// tier holds a superset of the front in a write-through hierarchy),
// hits sum across tiers (a request served by any tier is a store hit),
// and misses are the last tier's (a request missed the store only if it
// missed every tier — each tier is consulted only after the tiers in
// front of it missed).
func Totals(tiers []TierStats) (entries int, hits, misses uint64) {
	for _, t := range tiers {
		if t.Entries > entries {
			entries = t.Entries
		}
		hits += t.Hits
	}
	if len(tiers) > 0 {
		misses = tiers[len(tiers)-1].Misses
	}
	return entries, hits, misses
}
