package resultstore

import "repro/pkg/obs"

// RegisterMetrics re-exports a store's internal counters through an obs
// registry, recursing through tiered stores so wiring is one call at
// server construction whatever the stack:
//
//	store_remote_ops_total{op,result}   remote gets (hit|miss|error) and sets (ok|error)
//	store_remote_batch_size             histogram of multi-get batch sizes
//	store_compactions_total             disk segments rewritten by the compactor
//	store_compact_reclaimed_bytes       net disk bytes freed by compaction
//
// The counters stay owned by the store (Sampled families collect them
// at render time), so /metrics and /v1/cache/stats can never disagree.
func RegisterMetrics(reg *obs.Registry, s Store) {
	switch st := s.(type) {
	case *Tiered:
		RegisterMetrics(reg, st.front)
		RegisterMetrics(reg, st.back)
	case *Remote:
		registerRemoteMetrics(reg, st)
	case *Disk:
		registerDiskMetrics(reg, st)
	}
}

// remoteBatchBuckets cover batch sizes 1..MaxBatchSize for any sane
// configuration.
var remoteBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

func registerRemoteMetrics(reg *obs.Registry, r *Remote) {
	reg.Sampled("store_remote_ops_total",
		"Remote result-store operations by op and result.",
		obs.TypeCounter, []string{"op", "result"},
		func(emit func([]string, float64)) {
			emit([]string{"get", "hit"}, float64(r.hits.Load()))
			emit([]string{"get", "miss"}, float64(r.misses.Load()))
			emit([]string{"get", "error"}, float64(r.getErrs.Load()))
			emit([]string{"set", "ok"}, float64(r.sets.Load()))
			emit([]string{"set", "error"}, float64(r.setErrs.Load()))
		})
	h := reg.Histogram("store_remote_batch_size",
		"Keys per remote multi-get batch.", remoteBatchBuckets)
	r.batchHist.Store(&batchObserver{observe: h.Observe})
}

func registerDiskMetrics(reg *obs.Registry, d *Disk) {
	reg.Sampled("store_compactions_total",
		"Disk-store segments rewritten by the compactor.",
		obs.TypeCounter, nil,
		func(emit func([]string, float64)) {
			emit(nil, float64(d.compactions.Load()))
		})
	reg.Sampled("store_compact_reclaimed_bytes",
		"Net disk bytes freed by segment compaction.",
		obs.TypeCounter, nil,
		func(emit func([]string, float64)) {
			emit(nil, float64(d.reclaimed.Load()))
		})
}
