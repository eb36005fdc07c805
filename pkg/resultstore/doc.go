// Package resultstore is the pluggable persistent result store behind
// the serving tier: a small key/value interface over canonical request
// keys (frontendsim.Engine.RequestKey hashes) with three
// implementations that compose into the system's cache hierarchy.
//
//   - Memory: a bounded, concurrency-safe LRU over marshalled responses
//     — the process-local hot tier (formerly internal/simd's private
//     cache).
//   - Disk: a crash-safe disk-backed store — append-only, CRC-framed
//     segment files plus an in-memory index, size-capped by rotating and
//     evicting whole segments.  A Disk store reopened from the same
//     directory serves everything written before the previous process
//     died, including recovering cleanly from a torn (partially
//     written) tail record.
//   - Tiered: a write-through combinator placing one store (typically
//     Memory) in front of another (typically Disk).  Gets fill the
//     front tier on a back-tier hit; Sets populate both.
//
// The design follows the Thanos query-frontend results cache: the key
// identifies the *response*, so any replica — or a replica restarted
// seconds ago, or the ring neighbour that inherited a dead peer's keys
// — can serve a result some other process computed.  internal/simd
// serves its HTTP responses through a Store, and pkg/scheduler consults
// one before dispatching to the backend ring.
//
// Results are write-once: a Set of a held key keeps the held bytes.
// The one way to replace them is the optional Deleter capability
// (Delete), which all three implementations have; the scheduler uses it
// for an entry its typed decode refuses, so the recompute's write-back
// stores readable bytes.
//
// All implementations are safe for concurrent use, and every counter
// reported by Stats is maintained atomically, so Stats may be called
// concurrently with Get/Set from any goroutine (verified under the
// race detector).
//
// Stores hold and return the caller's byte slices without copying;
// callers must not modify a slice after Set or after receiving it from
// Get.
package resultstore
