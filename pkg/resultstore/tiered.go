package resultstore

import (
	"context"
	"errors"
)

// Tiered places one store in front of another (typically Memory in
// front of Disk), write-through: Set populates both tiers, Get consults
// the front tier first and fills it on a back-tier hit, so a key
// computed before a restart is promoted back into memory the first time
// it is served again.
type Tiered struct {
	front, back Store
}

// NewTiered combines front and back into one write-through store.
func NewTiered(front, back Store) *Tiered {
	return &Tiered{front: front, back: back}
}

// Get consults the front tier, then the back tier, promoting back-tier
// hits into the front tier.  A front-tier *failure* (not just a miss)
// still falls through to the back tier — per the Store contract a
// failing tier is treated as a missing one, so a flaky front never
// masks a result the back tier holds.  A back-tier failure surfaces as
// an error after the front tier missed; callers treat it as a miss.
func (t *Tiered) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if val, ok, err := t.front.Get(ctx, key); err == nil && ok {
		return val, true, nil
	}
	val, ok, err := t.back.Get(ctx, key)
	if err != nil || !ok {
		return nil, false, err
	}
	// Promotion is best-effort: the value is already in hand.
	t.front.Set(ctx, key, val)
	return val, true, nil
}

// Peek reads through both tiers without counting or promoting.  As in
// Get, a front-tier failure falls through to the back tier.  A Peek
// error surfaces only when *every* tier errored: health probes use Peek,
// and a tiered store with a live front and a dead back (say, a disk
// whose segments fail to read) is degraded, not down — it still serves.
func (t *Tiered) Peek(ctx context.Context, key string) ([]byte, bool, error) {
	frontVal, frontOK, frontErr := Peek(ctx, t.front, key)
	if frontErr == nil && frontOK {
		return frontVal, true, nil
	}
	val, ok, err := Peek(ctx, t.back, key)
	if err != nil && frontErr == nil {
		return nil, false, nil // degraded to the healthy front tier
	}
	return val, ok, err
}

// Set writes through to both tiers.  The write succeeds if either tier
// accepted it; a single-tier failure is still reported as an error.
func (t *Tiered) Set(ctx context.Context, key string, val []byte) error {
	return errors.Join(t.front.Set(ctx, key, val), t.back.Set(ctx, key, val))
}

// Delete drops key from both tiers, so neither serves (or promotes) the
// dropped bytes again.
func (t *Tiered) Delete(ctx context.Context, key string) error {
	return errors.Join(Delete(ctx, t.front, key), Delete(ctx, t.back, key))
}

// Stats returns the per-tier counters, front tier first.
func (t *Tiered) Stats() []TierStats {
	return append(t.front.Stats(), t.back.Stats()...)
}

// Close closes both tiers.
func (t *Tiered) Close() error {
	return errors.Join(t.front.Close(), t.back.Close())
}
