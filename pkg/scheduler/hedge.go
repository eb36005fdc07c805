package scheduler

import (
	"sort"
	"sync"
	"time"
)

// latencyTracker keeps a sliding window of successful dispatch
// latencies and answers percentile queries — the hedge trigger adapts
// to what the fleet actually serves instead of a guessed constant.
type latencyTracker struct {
	mu      sync.Mutex
	samples [256]time.Duration // ring buffer
	n       uint64             // total observations
}

// minHedgeSamples is how many latencies must be observed before the
// percentile is trusted; until then the configured HedgeDelay alone
// drives hedging.
const minHedgeSamples = 16

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.samples[t.n%uint64(len(t.samples))] = d
	t.n++
	t.mu.Unlock()
}

// percentile returns the p-quantile (0 < p < 1) of the window, or 0
// while fewer than minHedgeSamples latencies have been observed.
func (t *latencyTracker) percentile(p float64) time.Duration {
	t.mu.Lock()
	n := t.n
	if n < minHedgeSamples {
		t.mu.Unlock()
		return 0
	}
	if n > uint64(len(t.samples)) {
		n = uint64(len(t.samples))
	}
	window := make([]time.Duration, n)
	copy(window, t.samples[:n])
	t.mu.Unlock()
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	idx := int(p * float64(len(window)-1))
	return window[idx]
}

// hedgeAfter is the in-flight duration beyond which a dispatch fires a
// speculative attempt to the next ring node: the observed p95 dispatch
// latency, never less than the configured HedgeDelay floor.
func (s *Scheduler) hedgeAfter() time.Duration {
	if p := s.lat.percentile(0.95); p > s.hedgeDelay {
		return p
	}
	return s.hedgeDelay
}

// rearmTimer is the stop-drain-reset idiom: it re-arms t for d from
// now, discarding a stale, un-consumed expiry first.  A bare
// timer.Reset after the timer already fired leaves the old expiry
// sitting in t.C, and the next select consumes it immediately — for the
// hedge loop that meant a spurious instant hedge right after a failed
// attempt's fallback launch (and an inflated Hedged counter).  Only
// safe when no other goroutine receives from t.C, which holds here: the
// dispatch loop is the channel's sole consumer.
func rearmTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
