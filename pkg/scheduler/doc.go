// Package scheduler is the multi-node suite frontend (cmd/simsched): a
// Thanos-query-frontend-style tier that expands a benchmark suite into
// per-benchmark requests, shards them across a consistent-hash ring of
// simd backends by canonical request key, fails over along the ring
// when a backend dies, and aggregates results deterministically — the
// suite response is byte-identical to a serial in-process
// frontendsim.Engine.RunSuite.
//
// The tier stack, front to back:
//
//   - Response cache (Config.Cache, a resultstore.Store): a fully
//     cached suite is answered without contacting a single backend;
//     Served/Source report the X-Cache accounting.  Entries are the
//     backends' response bodies verbatim, so a key's bytes are the
//     same in both tiers and the two may share one store.
//   - Single-flight (internal/singleflight): identical concurrent
//     dispatches — across suites and plain simulations — resolve to
//     one store lookup and at most one backend call, with
//     reference-counted cancellation.
//   - Ring dispatch (Ring, Client): each key's home node first, then
//     up to Config.Retries failover nodes; request errors (4xx) never
//     retry, transport errors and 5xx walk the ring.
//
// De-duplication holds at every tier: duplicate keys within one suite
// dispatch once (frontendsim suite sharding), identical concurrent
// dispatches coalesce, the scheduler store absorbs repeats, and each
// simd backend single-flights and caches on the same canonical key.
//
// Ring assignment is a pure function of the backend set (128 virtual
// points per node by default): stable across scheduler restarts and
// backend-list reorderings, and removing a node re-homes only that
// node's keys.  Combined with a shared backend-side result store (see
// pkg/resultstore and examples/distributed), the ring neighbour that
// inherits a dead backend's keys serves them from the shared tier
// without recomputing — the serving-tier mirror of the paper's move of
// distributing a hot centralized structure across cooler replicas.
//
// See docs/ARCHITECTURE.md for the full request lifecycle and
// docs/OPERATIONS.md for running a backend ring.
package scheduler
