package resultstore

import "repro/pkg/obs"

// RegisterMetrics registers nothing: every store counter is a per-tier
// TierStats field, which simd and the scheduler already export
// (simd_store_ops_total, scheduler_store_ops_total).
//
// Deprecated: RegisterMetrics is a no-op; read Stats instead.
func RegisterMetrics(reg *obs.Registry, s Store) {}
