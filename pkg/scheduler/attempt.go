package scheduler

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// dispatchOutcome classifies one finished attempt, for both the ring
// walk and the passive membership feed.
type dispatchOutcome int

const (
	// outcomeSuccess: the backend served the request.
	outcomeSuccess dispatchOutcome = iota
	// outcomeFailure: the backend (or the path to it) is at fault —
	// transport error, 5xx, or a hang past the per-attempt deadline.
	// The walk moves on to the next node, and the verdict counts
	// against the backend.
	outcomeFailure
	// outcomeUnknown: the attempt says nothing about the backend — the
	// caller cancelled or the request itself was refused (4xx, every
	// backend would refuse).  No other node can cure it, so the walk
	// stops (retrying a dead request would only hammer the remaining
	// backends), and nothing is reported.
	outcomeUnknown
)

// classifyDispatch maps one attempt's error to its outcome.  ctx is the
// caller's context, which every attempt runs under.  A context.Canceled
// while ctx is still live is a cancellation that leaked in from the
// caller side; no backend produces one, so it must not count against the
// backend.  A DeadlineExceeded while ctx is live is the HTTP client's own
// per-attempt timeout — a hung backend, a failure, and exactly the case
// failover exists for.
func classifyDispatch(ctx context.Context, err error) dispatchOutcome {
	if err == nil {
		return outcomeSuccess
	}
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return outcomeUnknown
	}
	var be *BackendError
	if errors.As(err, &be) && !be.Retryable() {
		return outcomeUnknown
	}
	return outcomeFailure
}

// report feeds one attempt's verdict about node to the passive
// membership feed: nil for a success, the failure otherwise.
func (s *Scheduler) report(node string, err error) {
	if s.reportDispatch != nil {
		s.reportDispatch(node, err)
	}
}

// backoff sleeps the jittered exponential delay before retry attempt
// `attempt` (1 = the first retry), observing the slept duration in the
// sched_retry_backoff_seconds histogram.  Disabled (0 RetryBackoff)
// or non-positive attempts return immediately.
func (s *Scheduler) backoff(ctx context.Context, attempt int) error {
	if s.retryBackoff <= 0 || attempt < 1 {
		return nil
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6 // cap the exponent: 64x base is already a long wait
	}
	d := s.retryBackoff << shift
	// Full jitter around the exponential midpoint: [0.5d, 1.5d).
	// Decorrelates the ring walks of concurrent shards so a recovering
	// backend sees a trickle, not a thundering herd.
	s.rngMu.Lock()
	d = d/2 + time.Duration(s.rng.Int63n(int64(d)))
	s.rngMu.Unlock()
	if s.backoffSeconds != nil {
		s.backoffSeconds.Observe(d.Seconds())
	}
	s.backoffs.Add(1)
	return s.sleep(ctx, d)
}

// sleepCtx waits d or fails with ctx's error — the default
// Scheduler.sleep (tests substitute a stub to assert spacing without
// real waiting).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newJitterRNG seeds the backoff jitter source.  Crypto quality is
// irrelevant; per-scheduler seeding only has to decorrelate replicas.
func newJitterRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
