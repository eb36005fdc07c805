// Package frontendsim is the public API of the distributed-frontend
// thermal simulator — the reproduction of "Distributing the Frontend
// for Temperature Reduction" (HPCA 2005).  It wraps the internal
// simulation pipeline (core, power, thermal, dtm) behind an Engine that
// supports
//
//   - functional-option construction (WithThermal, WithPower, WithDTM,
//     WithIntervalCycles, ...),
//   - context-aware runs: Run(ctx, Request) honors cancellation between
//     thermal intervals,
//   - streaming observation: observers receive one Snapshot per measured
//     interval (temperatures, per-block power, incremental IPC, bank-hop
//     and DTM state) instead of only a final Result,
//   - JSON-(un)marshalable Request/Result types, so runs can cross a
//     process boundary (see cmd/simd),
//   - canonical request keys: RequestKey hashes the fully resolved
//     request (configuration, simulation lengths, model overrides) so
//     two spellings of the same simulation share one cache entry across
//     every tier — the LRU/disk stores of pkg/resultstore, the
//     coalescing single-flight groups, and the consistent-hash sharding
//     of pkg/scheduler all key on it,
//   - RunSuite: a bounded worker pool that parallelizes a benchmark
//     sweep with deterministic, order-independent aggregation, de-duped
//     on the canonical request key,
//   - RunSuiteVia: the same suite machinery over a caller-supplied
//     Dispatcher, so a suite can run against remote backends (see
//     pkg/scheduler) with an aggregate byte-identical to a local run;
//     a suite canonicalizes its template once and derives every
//     position's key from that encoding, and the SourcedDispatcher of
//     RunSuiteStream and RunSuitePartial is handed each shard's key
//     (equal to RequestKey of its request), and
//   - byte-level serving: DecodeResultView type-checks result bytes
//     as strictly as json.Unmarshal and decodes only the fields a
//     suite aggregate folds, and the suite
//     encoders (SuiteResult.AppendJSON, SuiteStreamLine.AppendJSON)
//     splice those bytes into responses instead of re-encoding them.
//
// The zero-cost entry point for a single paper-style run:
//
//	eng := frontendsim.New()
//	res, err := eng.Run(ctx, frontendsim.Request{Benchmark: "gzip"})
//
// A suite across several benchmarks, deterministically aggregated:
//
//	suite, err := eng.RunSuite(ctx, frontendsim.SuiteRequest{
//	    Benchmarks: []string{"gzip", "mcf"},
//	    Request:    frontendsim.Request{Frontends: 2},
//	})
//
// See docs/ARCHITECTURE.md for how this package composes with
// internal/simd, pkg/scheduler and pkg/resultstore into the serving
// system, and docs/API.md for the HTTP surface built on top of it.
package frontendsim
