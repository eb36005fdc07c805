package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"

	"repro/internal/singleflight"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// Source reports how a ReadThrough served one key.
type Source int

const (
	Miss      Source = iota // this caller's flight computed the body
	Hit                     // the store answered, before or inside a flight
	Coalesced               // joined another caller's flight, which computed
)

// String returns the X-Cache spelling of the source.
func (s Source) String() string {
	switch s {
	case Hit:
		return "HIT"
	case Coalesced:
		return "COALESCED"
	}
	return "MISS"
}

// ReadThrough serves the body of a canonical key from a response store,
// and computes it once when the store lacks it: a counted store Get
// answers a hit without starting a flight; concurrent misses of one key
// share one flight, which re-checks the store uncounted (for a miss
// that raced a just-finished flight), computes, and writes the body
// back.  Q is what compute needs besides the key, V the decoded value
// served with the body.  A nil store disables the store.  Store
// failures are served around: a Get error is a miss, a Set error only
// costs a later recompute.
type ReadThrough[Q, V any] struct {
	store resultstore.Store
	// validate decodes a stored body (nil: V's zero value).  An entry
	// it refuses is deleted, so the recompute's write-back replaces it.
	validate func([]byte) (V, error)
	compute  func(ctx context.Context, key string, q Q) ([]byte, V, error)
	flight   singleflight.Group[entry[V]]

	hits      atomic.Uint64
	coalesced atomic.Uint64
}

// entry is one served body, its value, and whether the store held it.
type entry[V any] struct {
	body   []byte
	val    V
	stored bool
}

// NewReadThrough builds a read-through over store (nil: none), checking
// stored bodies with validate (nil: unchecked) and computing misses with
// compute.
func NewReadThrough[Q, V any](store resultstore.Store, validate func([]byte) (V, error),
	compute func(ctx context.Context, key string, q Q) ([]byte, V, error)) *ReadThrough[Q, V] {
	return &ReadThrough[Q, V]{store: store, validate: validate, compute: compute}
}

// Get serves key.  A caller the store answered — before the flight, or
// by the re-check inside one it started or joined — is a Hit; a caller
// that joined a flight which computed is Coalesced.  A failed flight
// fails every caller that shared it: the error comes with Coalesced for
// a joiner and Miss for the leader, and counts as neither a hit nor a
// coalesce (no work was saved).
func (rt *ReadThrough[Q, V]) Get(ctx context.Context, key string, q Q) ([]byte, V, Source, error) {
	if e, ok := rt.lookup(ctx, key, true); ok {
		rt.hits.Add(1)
		return e.body, e.val, Hit, nil
	}
	return rt.fill(ctx, key, q)
}

// fill is Get's miss path, kept out of Get so only a miss pays for the
// flight's closure.
func (rt *ReadThrough[Q, V]) fill(ctx context.Context, key string, q Q) ([]byte, V, Source, error) {
	e, err, shared := rt.flight.Do(ctx, key, func(runCtx context.Context) (entry[V], error) {
		if e, ok := rt.lookup(runCtx, key, false); ok {
			return e, nil
		}
		body, v, err := rt.compute(runCtx, key, q)
		if err != nil {
			return entry[V]{}, err
		}
		if rt.store != nil {
			rt.store.Set(runCtx, key, body)
		}
		return entry[V]{body: body, val: v}, nil
	})
	switch {
	case err != nil:
		src := Miss
		if shared {
			src = Coalesced
		}
		return nil, e.val, src, err
	case e.stored:
		rt.hits.Add(1)
		return e.body, e.val, Hit, nil
	case shared:
		rt.coalesced.Add(1)
		return e.body, e.val, Coalesced, nil
	}
	return e.body, e.val, Miss, nil
}

// lookup reads key from the store — a counted Get, or an uncounted
// resultstore.Peek for the re-check — and validates the entry.  Any
// failure is a miss; the delete of a refused entry is best-effort.
func (rt *ReadThrough[Q, V]) lookup(ctx context.Context, key string, counted bool) (entry[V], bool) {
	if rt.store == nil {
		return entry[V]{}, false
	}
	var body []byte
	var ok bool
	var err error
	if counted {
		body, ok, err = rt.store.Get(ctx, key)
	} else {
		body, ok, err = resultstore.Peek(ctx, rt.store, key)
	}
	if err != nil || !ok {
		return entry[V]{}, false
	}
	var v V
	if rt.validate != nil {
		if v, err = rt.validate(body); err != nil {
			resultstore.Delete(ctx, rt.store, key)
			return entry[V]{}, false
		}
	}
	return entry[V]{body: body, val: v, stored: true}, true
}

// Hits counts callers the store answered.
func (rt *ReadThrough[Q, V]) Hits() uint64 { return rt.hits.Load() }

// Coalesced counts callers served by joining a flight that computed.
func (rt *ReadThrough[Q, V]) Coalesced() uint64 { return rt.coalesced.Load() }

// StoreStats returns the store's per-tier counters (nil without a
// store).
func (rt *ReadThrough[Q, V]) StoreStats() []resultstore.TierStats {
	if rt.store == nil {
		return nil
	}
	return rt.store.Stats()
}

// ServeCacheStats answers GET /v1/cache/stats: the folded store totals
// (resultstore.Totals' semantics), the coalesced count, and each tier's
// own counters.  An empty tier list means there is no store.
func (rt *ReadThrough[Q, V]) ServeCacheStats(w http.ResponseWriter, _ *http.Request) {
	tiers := rt.StoreStats()
	entries, hits, misses := resultstore.Totals(tiers)
	if tiers == nil {
		tiers = []resultstore.TierStats{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Entries   int                     `json:"entries"`
		Hits      uint64                  `json:"hits"`
		Misses    uint64                  `json:"misses"`
		Coalesced uint64                  `json:"coalesced"`
		Tiers     []resultstore.TierStats `json:"tiers"`
	}{Entries: entries, Hits: hits, Misses: misses, Coalesced: rt.Coalesced(), Tiers: tiers})
}

// RegisterStoreOps exports the store's per-tier counters on reg as the
// counter family name{tier, op}, op one of hit, miss, set and error.
func (rt *ReadThrough[Q, V]) RegisterStoreOps(reg *obs.Registry, name, help string) {
	reg.Sampled(name, help, obs.TypeCounter, []string{"tier", "op"}, func(emit func([]string, float64)) {
		for _, t := range rt.StoreStats() {
			emit([]string{t.Tier, "hit"}, float64(t.Hits))
			emit([]string{t.Tier, "miss"}, float64(t.Misses))
			emit([]string{t.Tier, "set"}, float64(t.Sets))
			emit([]string{t.Tier, "error"}, float64(t.Errors))
		}
	})
}
