// Package faultinject is a deterministic fault-injection harness for
// the serving stack: a rule-driven injector planted as a reverse proxy
// in front of a backend (the wire side, where neither endpoint's code
// changes), plus a small HTTP control API so integration tests,
// `make chaos` and examples/distributed can script failure scenarios at
// runtime.
//
// Every probabilistic decision draws from one seeded PRNG, so a given
// seed replays the same injection sequence — chaos runs are
// regression-testable instead of flaky.  Rules compose: a latency rule
// and an error-status rule matching the same request both apply (the
// latency is paid, then the error is served).  Supported injections:
//
//   - Latency      delay before the request is forwarded
//   - Status       short-circuit with an HTTP error status (no forward)
//   - Drop         kill the connection (the client sees a transport error)
//   - SlowBody     throttle the response body, one chunk per delay
//   - CorruptByte  flip one byte of the response body (CRC/decode faults)
//
// The Corrupter is exported on its own so file-level corruption tests
// (e.g. the disk result store's torn-tail recovery) share the same
// seeded byte-mangling path as the HTTP rules.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Match selects which requests a rule applies to.  Empty fields match
// anything; set fields must all match.
type Match struct {
	// Method is the exact HTTP method ("POST"); empty matches any.
	Method string `json:"method,omitempty"`
	// Path is a request-path prefix ("/v1/simulations"); empty matches
	// any.
	Path string `json:"path,omitempty"`
	// Backend is a substring of the proxy's target URL; empty matches
	// any.
	Backend string `json:"backend,omitempty"`
	// BodyContains is a substring of the request body — the way to
	// target one benchmark's shard (`"benchmark":"mcf"`) when every
	// shard shares one path.  Empty matches any.
	BodyContains string `json:"body_contains,omitempty"`
}

func (m Match) matches(method, path, backend string, body []byte) bool {
	if m.Method != "" && m.Method != method {
		return false
	}
	if m.Path != "" && !strings.HasPrefix(path, m.Path) {
		return false
	}
	if m.Backend != "" && !strings.Contains(backend, m.Backend) {
		return false
	}
	if m.BodyContains != "" && !strings.Contains(string(body), m.BodyContains) {
		return false
	}
	return true
}

// Rule is one injection: a match, an application probability, an
// optional application budget, and the faults to inject.  Durations are
// plain millisecond integers so rules round-trip through the JSON
// control API without custom encoding.
type Rule struct {
	// ID names the rule (assigned by Add when empty); DELETE
	// /rules?id= removes it.
	ID string `json:"id,omitempty"`
	// Match selects the requests the rule considers.
	Match Match `json:"match,omitzero"`
	// Probability is the chance a considered request is injected
	// (0 selects 1.0 — always).  Draws come from the injector's seeded
	// PRNG in arrival order.
	Probability float64 `json:"probability,omitempty"`
	// MaxCount caps how many requests the rule injects in total
	// (0 = unlimited).  Deterministic scenarios — "the first 4 requests
	// to this backend drop" — use MaxCount with Probability 1.
	MaxCount int `json:"max_count,omitempty"`
	// LatencyMs delays the request before any forwarding.
	LatencyMs int64 `json:"latency_ms,omitempty"`
	// Status short-circuits with this HTTP status and a JSON error
	// envelope; the backend is never contacted.
	Status int `json:"status,omitempty"`
	// Drop kills the connection: the Proxy aborts the response without
	// writing it.
	Drop bool `json:"drop,omitempty"`
	// SlowBodyMs throttles the response body to one chunk per delay.
	SlowBodyMs int64 `json:"slow_body_ms,omitempty"`
	// CorruptByte flips one PRNG-chosen byte of the response body.
	CorruptByte bool `json:"corrupt_byte,omitempty"`

	// Injected counts how many requests this rule has injected.
	Injected uint64 `json:"injected"`
}

// Validate reports a rule no injection can honour: a status outside
// 100–599 (other than 0, no status), a negative duration or budget, or
// a probability outside [0, 1].
func (r Rule) Validate() error {
	switch {
	case r.Status != 0 && (r.Status < 100 || r.Status > 599):
		return fmt.Errorf("faultinject: status %d outside 100-599", r.Status)
	case r.LatencyMs < 0:
		return fmt.Errorf("faultinject: negative latency_ms %d", r.LatencyMs)
	case r.SlowBodyMs < 0:
		return fmt.Errorf("faultinject: negative slow_body_ms %d", r.SlowBodyMs)
	case r.MaxCount < 0:
		return fmt.Errorf("faultinject: negative max_count %d", r.MaxCount)
	case r.Probability < 0 || r.Probability > 1:
		return fmt.Errorf("faultinject: probability %g outside [0, 1]", r.Probability)
	}
	return nil
}

// decision is the folded outcome of every matching rule for one
// request.
type decision struct {
	latency  time.Duration
	status   int
	drop     bool
	slowBody time.Duration
	corrupt  bool
}

func (d decision) empty() bool {
	return d.latency == 0 && d.status == 0 && !d.drop && d.slowBody == 0 && !d.corrupt
}

// Stats are the injector's cumulative per-fault counters.
type Stats struct {
	Requests    uint64 `json:"requests"`
	Latency     uint64 `json:"latency"`
	Status      uint64 `json:"status"`
	Drop        uint64 `json:"drop"`
	SlowBody    uint64 `json:"slow_body"`
	CorruptByte uint64 `json:"corrupt_byte"`
}

// Injector owns the rule set and the seeded PRNG.  One Injector may
// back any number of Proxies; rule evaluation is serialized, so the
// random sequence is a function of arrival order.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*Rule
	nextID int
	stats  Stats
}

// New returns an Injector whose probability draws and byte corruption
// derive from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Add installs a rule and returns its ID (assigned when empty).
func (in *Injector) Add(r Rule) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r.ID == "" {
		in.nextID++
		r.ID = fmt.Sprintf("rule-%d", in.nextID)
	}
	r.Injected = 0
	rc := r
	in.rules = append(in.rules, &rc)
	return rc.ID
}

// Remove deletes the rule with the given ID, reporting whether it
// existed.
func (in *Injector) Remove(id string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if r.ID == id {
			in.rules = append(in.rules[:i], in.rules[i+1:]...)
			return true
		}
	}
	return false
}

// Reset removes every rule (counters are kept: they describe history).
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Rules returns a snapshot of the rule set, including per-rule
// injection counts.
func (in *Injector) Rules() []Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Rule, len(in.rules))
	for i, r := range in.rules {
		out[i] = *r
	}
	return out
}

// Stats returns the cumulative injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide evaluates every rule against one request and folds the
// matching injections.  Probability draws happen under the lock, in
// rule order, so a fixed seed replays a fixed draw sequence.
func (in *Injector) decide(method, path, backend string, body []byte) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Requests++
	var d decision
	for _, r := range in.rules {
		if !r.Match.matches(method, path, backend, body) {
			continue
		}
		if r.MaxCount > 0 && r.Injected >= uint64(r.MaxCount) {
			continue
		}
		if p := r.Probability; p > 0 && p < 1 && in.rng.Float64() >= p {
			continue
		}
		r.Injected++
		if r.LatencyMs > 0 {
			d.latency += time.Duration(r.LatencyMs) * time.Millisecond
			in.stats.Latency++
		}
		if r.Status > 0 && d.status == 0 {
			d.status = r.Status
			in.stats.Status++
		}
		if r.Drop {
			d.drop = true
			in.stats.Drop++
		}
		if r.SlowBodyMs > 0 {
			d.slowBody = time.Duration(r.SlowBodyMs) * time.Millisecond
			in.stats.SlowBody++
		}
		if r.CorruptByte {
			d.corrupt = true
			in.stats.CorruptByte++
		}
	}
	return d
}

// corruptIndex draws the byte position to flip for an n-byte body.
func (in *Injector) corruptIndex(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return in.rng.Intn(n)
}

// Corrupter deterministically mangles byte slices — the shared
// corruption path of the HTTP corrupt-byte rule and file-level tests
// (torn segment tails, flipped record bytes) that previously
// hand-picked offsets.
type Corrupter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewCorrupter returns a Corrupter seeded with seed.
func NewCorrupter(seed int64) *Corrupter {
	return &Corrupter{rng: rand.New(rand.NewSource(seed))}
}

// FlipByte inverts one PRNG-chosen byte of b in place and returns its
// index (-1 for an empty slice).
func (c *Corrupter) FlipByte(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	c.mu.Lock()
	i := c.rng.Intn(len(b))
	c.mu.Unlock()
	b[i] ^= 0xff
	return i
}

// FlipByteIn is FlipByte restricted to b[from:to] — corrupting a known
// region (one record's value) while leaving framing around it intact.
func (c *Corrupter) FlipByteIn(b []byte, from, to int) int {
	if from < 0 || to > len(b) || from >= to {
		return -1
	}
	c.mu.Lock()
	i := from + c.rng.Intn(to-from)
	c.mu.Unlock()
	b[i] ^= 0xff
	return i
}

// TornTail returns how many tail bytes to chop off an n-byte file to
// simulate a crash mid-append: 1..max(1, limit) bytes, never the whole
// file.
func (c *Corrupter) TornTail(n, limit int) int {
	if n <= 1 {
		return 0
	}
	if limit < 1 || limit > n-1 {
		limit = n - 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return 1 + c.rng.Intn(limit)
}
