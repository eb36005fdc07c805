package scheduler

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// dispatchOutcome classifies one finished attempt for the breaker and
// the passive membership feed.
type dispatchOutcome int

const (
	// outcomeSuccess: the backend served the request.
	outcomeSuccess dispatchOutcome = iota
	// outcomeFailure: the backend (or the path to it) is at fault —
	// transport error, 5xx, or a hang past the per-attempt deadline.
	outcomeFailure
	// outcomeUnknown: the attempt says nothing about the backend — the
	// caller cancelled or the request itself was refused (4xx, every
	// backend would refuse).
	outcomeUnknown
)

// classifyDispatch maps one attempt's error to its outcome.  ctx is the
// caller's context, which every attempt runs under.  A context.Canceled
// while ctx is still live is a cancellation that leaked in from the
// caller side; no backend produces one, so it must not count against the
// backend.  A DeadlineExceeded while ctx is live is the HTTP client's own
// per-attempt timeout — a hung backend, a failure.
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

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerNode is one backend's breaker.
type breakerNode struct {
	state    int
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// breaker is the scheduler's passive per-backend circuit breaker:
// consecutive dispatch failures open a node's circuit, an open circuit
// diverts the ring walk around the node (no request is burned on a
// backend that just failed threshold times in a row), and after
// cooldown a single probe request is let through — success closes the
// circuit, failure re-opens it for another cooldown.  Unlike the
// membership registry's active /healthz probes, the breaker reacts at
// dispatch speed: a backend that starts failing is diverted within
// `threshold` requests, not at the next probe round.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests
	nodes     map[string]*breakerNode

	// Transition counters, by destination state
	// (sched_breaker_transitions_total{to}).
	opened   atomic.Uint64
	halfOpen atomic.Uint64
	closed   atomic.Uint64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		nodes:     make(map[string]*breakerNode),
	}
}

func (b *breaker) node(url string) *breakerNode {
	n := b.nodes[url]
	if n == nil {
		n = &breakerNode{}
		b.nodes[url] = n
	}
	return n
}

// allow reports whether a dispatch to url may proceed.  An open circuit
// past its cooldown flips to half-open and admits exactly one probe;
// further requests are diverted until the probe resolves (record).
func (b *breaker) allow(url string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.node(url)
	switch n.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(n.openedAt) < b.cooldown {
			return false
		}
		n.state = breakerHalfOpen
		n.probing = true
		b.halfOpen.Add(1)
		return true
	default: // half-open
		if n.probing {
			return false
		}
		n.probing = true
		return true
	}
}

// record feeds one attempt's outcome back.  Success closes the circuit;
// a failure while half-open re-opens it immediately, while closed it
// opens once `threshold` consecutive failures accumulate.  An unknown
// outcome only releases a held probe slot — a cancelled probe must not
// wedge the circuit half-open forever, and must not re-open it either.
func (b *breaker) record(url string, out dispatchOutcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.node(url)
	switch out {
	case outcomeSuccess:
		if n.state != breakerClosed {
			b.closed.Add(1)
		}
		n.state = breakerClosed
		n.fails = 0
		n.probing = false
	case outcomeFailure:
		n.probing = false
		if n.state == breakerHalfOpen {
			n.state = breakerOpen
			n.openedAt = b.now()
			b.opened.Add(1)
			return
		}
		if n.state == breakerClosed {
			n.fails++
			if n.fails >= b.threshold {
				n.state = breakerOpen
				n.openedAt = b.now()
				b.opened.Add(1)
			}
		}
	default:
		n.probing = false
	}
}

// stateOf returns url's current breaker state (for tests and metrics).
func (b *breaker) stateOf(url string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.nodes[url]; n != nil {
		return n.state
	}
	return breakerClosed
}

// allowNode is the breaker gate of the ring walk (true when the breaker
// is disabled).
func (s *Scheduler) allowNode(url string) bool {
	if s.brk == nil {
		return true
	}
	if s.brk.allow(url) {
		return true
	}
	s.breakerSkips.Add(1)
	return false
}

// reportAttempt feeds one finished dispatch attempt to the breaker and
// the passive membership feed.  ctx is the context the attempt ran under
// (see classifyDispatch); unknown outcomes reach neither — they carry no
// information about the backend.
func (s *Scheduler) reportAttempt(ctx context.Context, node string, err error) {
	out := classifyDispatch(ctx, err)
	if s.brk != nil {
		s.brk.record(node, out)
	}
	if s.reportDispatch == nil {
		return
	}
	switch out {
	case outcomeSuccess:
		s.reportDispatch(node, nil)
	case outcomeFailure:
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
