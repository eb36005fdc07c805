// Package faultinject is a deterministic fault-injection harness for
// the serving stack: a rule-driven injector planted as a reverse proxy
// in front of a backend (the wire side, where neither endpoint's code
// changes).  Integration tests, `make chaos` and examples/distributed
// script failure scenarios by adding and removing rules in-process.
//
// Every probabilistic decision draws from one seeded PRNG, so a given
// seed replays the same injection sequence — chaos runs are
// regression-testable instead of flaky.  Rules compose: a latency rule
// and an error-status rule matching the same request both apply (the
// latency is paid, then the error is served).
package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"
)

// Rule is one injection: which requests it matches, an application
// probability, an optional application budget, and the faults to
// inject.  Empty match fields match anything; set ones must all match.
type Rule struct {
	// Path is a request-path prefix ("/v1/simulations").
	Path string
	// BodyContains is a substring of the request body — the way to
	// target one benchmark's shard (`"benchmark":"mcf"`) when every
	// shard shares one path.
	BodyContains string
	// Probability is the chance a matching request is injected
	// (0 selects 1.0 — always).  Draws come from the injector's seeded
	// PRNG in arrival order.
	Probability float64
	// MaxCount caps how many requests the rule injects in total
	// (0 = unlimited).  Deterministic scenarios — "the first 4 requests
	// to this backend drop" — use MaxCount with Probability 1.
	MaxCount int
	// Latency delays the request before any forwarding.
	Latency time.Duration
	// Status short-circuits with this HTTP status and a JSON error
	// envelope; the backend is never contacted.
	Status int
	// Drop kills the connection: the Proxy aborts the response without
	// writing it.
	Drop bool
}

func (r *Rule) matches(path string, body []byte) bool {
	return strings.HasPrefix(path, r.Path) && bytes.Contains(body, []byte(r.BodyContains))
}

// rule is an installed Rule with its ID and injection count.
type rule struct {
	Rule
	id       string
	injected int
}

// Stats are the injector's cumulative per-fault counters.
type Stats struct {
	Requests, Latency, Status, Drop uint64
}

// Injector owns the rule set and the seeded PRNG.  One Injector may
// back any number of Proxies; rule evaluation is serialized, so the
// random sequence is a function of arrival order.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*rule
	nextID int
	stats  Stats
}

// New returns an Injector whose probability draws derive from seed.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Add installs a rule and returns the ID that removes it.
func (in *Injector) Add(r Rule) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.nextID++
	id := fmt.Sprintf("rule-%d", in.nextID)
	in.rules = append(in.rules, &rule{Rule: r, id: id})
	return id
}

// Remove deletes the rule with the given ID, reporting whether it
// existed.
func (in *Injector) Remove(id string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := len(in.rules)
	in.rules = slices.DeleteFunc(in.rules, func(r *rule) bool { return r.id == id })
	return len(in.rules) < n
}

// Stats returns the cumulative injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide evaluates every rule against one request and folds the
// matching injections into one Rule: the latencies add up, the first
// status wins.  Probability draws happen under the lock, in rule order,
// so a fixed seed replays a fixed draw sequence.
func (in *Injector) decide(path string, body []byte) Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Requests++
	var d Rule
	for _, r := range in.rules {
		if !r.matches(path, body) || r.MaxCount > 0 && r.injected >= r.MaxCount {
			continue
		}
		if p := r.Probability; p > 0 && p < 1 && in.rng.Float64() >= p {
			continue
		}
		r.injected++
		if r.Latency > 0 {
			d.Latency += r.Latency
			in.stats.Latency++
		}
		if r.Status > 0 && d.Status == 0 {
			d.Status = r.Status
			in.stats.Status++
		}
		if r.Drop {
			d.Drop = true
			in.stats.Drop++
		}
	}
	return d
}
