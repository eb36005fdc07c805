package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// expectedThroughputCycles is the committed cycle count of the
// BenchmarkSimulatorThroughput workload (gzip, LengthScale 1, 50k
// micro-ops, baseline config).  The simulator is deterministic, so any
// drift means the machine's timing semantics changed; update this value
// (and BENCH_results.json, and the golden fixtures) only in a PR that
// documents the semantic change.
const expectedThroughputCycles = 265471

// expectedThroughputReadyEvals is the number of wakeup-scan readiness
// evaluations the same workload counts (Stats.ReadyEvals, which feeds
// the issue queues' Reads activity counter).  A load parked on its MOB
// is not evaluated but is charged one evaluation per cycle, as the poll
// that parking replaced evaluated it, so a faster select must leave this
// unchanged.
const expectedThroughputReadyEvals = 3703996

// newThroughputProcessor builds the exact workload of
// BenchmarkSimulatorThroughput; the benchmark and the pin test share it
// so the pinned cycle count always gates what the benchmark measures.
func newThroughputProcessor(tb testing.TB) *core.Processor {
	tb.Helper()
	prof, ok := workload.ByName("gzip")
	if !ok {
		tb.Fatal("gzip profile missing")
	}
	prof.LengthScale = 1
	return core.New(core.DefaultConfig(), workload.NewGenerator(prof, 50_000))
}

// TestSimulatorThroughputCyclesPinned is the cycles/op regression gate
// run by `make bench-short`: it pins the exact cycle count the
// throughput benchmark reports as its cycles/op metric.
func TestSimulatorThroughputCyclesPinned(t *testing.T) {
	p := newThroughputProcessor(t)
	p.Run(0)
	if p.Stats.Cycles != expectedThroughputCycles {
		t.Fatalf("throughput workload ran %d cycles, committed expectation is %d (timing semantics changed? update the constant, BENCH_results.json and the goldens together)",
			p.Stats.Cycles, expectedThroughputCycles)
	}
	if p.Stats.ReadyEvals != expectedThroughputReadyEvals {
		t.Fatalf("throughput workload counted %d ready evaluations, committed expectation is %d (a scan shortcut changed the activity counters?)",
			p.Stats.ReadyEvals, expectedThroughputReadyEvals)
	}
}
