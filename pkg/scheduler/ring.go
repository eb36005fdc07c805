// Package scheduler distributes frontendsim suite requests across a ring
// of simd backends (the multi-node tier of the simulation service; see
// cmd/simsched).  Sharding is consistent hashing on the canonical
// RequestKey: each per-benchmark request has one home backend, assignment
// is a pure function of the backend set (stable across scheduler
// restarts and independent of configuration order), and a backend
// failure re-routes only that backend's keys to their next ring node.
// Within the scheduler, identical requests are single-flighted so a key
// is dispatched at most once at any moment, even across concurrent
// suites.
package scheduler

import "repro/internal/hashring"

// Ring is an immutable consistent-hash ring over a set of backend nodes.
// The implementation lives in internal/hashring; Ring here is an alias,
// so values are interchangeable.
type Ring = hashring.Ring

// NewRing builds a ring over nodes (duplicates are collapsed).  The
// resulting assignment depends only on the set of node names — not their
// order — so a restarted scheduler with the same backend set shards
// identically.  Every node gets hashring.DefaultReplicas virtual points.
func NewRing(nodes []string) (*Ring, error) {
	return hashring.New(nodes)
}
