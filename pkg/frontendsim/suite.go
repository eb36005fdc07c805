package frontendsim

import (
	"context"
	"fmt"

	"repro/internal/metrics"
)

// SuiteRequest sweeps one configuration over a set of benchmarks.
type SuiteRequest struct {
	// Benchmarks selects the suite; nil runs all 26 SPEC2000 profiles.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Request is the per-run template; its Benchmark field is ignored
	// (each suite entry substitutes its own).
	Request Request `json:"request"`
}

// names is the suite's benchmark list: Benchmarks, or every profile
// when nil.
func (s SuiteRequest) names() []string {
	if s.Benchmarks == nil {
		return Benchmarks()
	}
	return s.Benchmarks
}

// Requests expands the suite into one request per benchmark, in suite
// order.
func (s SuiteRequest) Requests() []Request {
	names := s.names()
	out := make([]Request, len(names))
	for i, n := range names {
		r := s.Request
		r.Benchmark = n
		out[i] = r
	}
	return out
}

// Validate checks every expanded request and reports the first error
// in suite order.  The template is checked once: at each position the
// benchmark name is checked first, then the shared template.
func (s SuiteRequest) Validate() error {
	if len(s.Benchmarks) == 0 && s.Benchmarks != nil {
		return fmt.Errorf("frontendsim: suite selects no benchmarks")
	}
	tmplErr := s.Request.validateTemplate()
	for _, n := range s.names() {
		if err := validateBenchmark(n); err != nil {
			return err
		}
		if tmplErr != nil {
			return tmplErr
		}
	}
	return nil
}

// SuiteAggregate summarizes a suite run.  All means are plain arithmetic
// means over the benchmarks, accumulated in suite order regardless of
// which worker finished first, so a parallel run aggregates bit-identical
// to a serial one.
type SuiteAggregate struct {
	Benchmarks    int                       `json:"benchmarks"`
	MeanIPC       float64                   `json:"mean_ipc"`
	MeanTCHitRate float64                   `json:"mean_tc_hit_rate"`
	TotalCycles   uint64                    `json:"total_cycles"`
	TotalOps      uint64                    `json:"total_ops"`
	TotalHops     uint64                    `json:"total_hops"`
	Units         map[string]metrics.Triple `json:"units"`
}

// ShardError records one shard that could not be dispatched during a
// partial-results run: the suite positions it covers, its benchmark,
// and the dispatch error.  The corresponding Results entries are nil.
type ShardError struct {
	// Positions are the suite indices sharing the failed shard's
	// canonical key, ascending.
	Positions []int `json:"positions"`
	// Benchmark is the failed request's benchmark.
	Benchmark string `json:"benchmark"`
	// Err is the dispatch error's message.
	Err string `json:"error"`
}

// SuiteResult is the outcome of RunSuite: per-benchmark results in suite
// order plus the deterministic aggregate.  Errors is populated only by
// partial-results runs (RunSuitePartial): each entry names a shard whose
// dispatch failed, its Results positions are nil, and the aggregate
// folds the shards that did complete.
type SuiteResult struct {
	Results   []*Result      `json:"results"`
	Errors    []ShardError   `json:"errors,omitempty"`
	Aggregate SuiteAggregate `json:"aggregate"`
}

// ByBenchmark returns the result for one benchmark, or nil.
func (s *SuiteResult) ByBenchmark(name string) *Result {
	for _, r := range s.Results {
		if r != nil && r.Benchmark == name {
			return r
		}
	}
	return nil
}

// Dispatcher executes one per-benchmark request of a suite.  Engine.Run
// is the in-process dispatcher; pkg/scheduler supplies one that ships the
// request to a remote simd backend.  A Dispatcher must be safe for
// concurrent use and should honor ctx cancellation.
type Dispatcher func(ctx context.Context, req Request) (*Result, error)

// RunSuite runs the suite in-process: RunSuiteVia with Engine.Run as the
// dispatcher.
func (e *Engine) RunSuite(ctx context.Context, suite SuiteRequest) (*SuiteResult, error) {
	return e.RunSuiteVia(ctx, suite, e.Run)
}

// suiteKeys validates the suite, expands it and derives the canonical
// key of every position from one encoding of the shared template:
// keys[i] equals RequestKey(reqs[i]), at one hash and one string per
// position instead of one json.Marshal.
func (e *Engine) suiteKeys(suite SuiteRequest) (reqs []Request, keys []string, err error) {
	if err := suite.Validate(); err != nil {
		return nil, nil, err
	}
	kt, err := e.newKeyTemplate(suite.Request)
	if err != nil {
		return nil, nil, err
	}
	reqs = suite.Requests()
	keys = make([]string, len(reqs))
	for i, r := range reqs {
		keys[i] = kt.key(r.Benchmark)
	}
	return reqs, keys, nil
}

// shardByKey groups suite positions by canonical key in
// first-appearance order, so duplicate suite entries dispatch exactly
// once (the suite-level half of the single-flight guarantee; the
// concurrent half lives in internal/simd and pkg/scheduler).  Each shard
// lists the suite positions sharing one key, ascending; the first
// position's request is the one dispatched.
func shardByKey(keys []string) [][]int {
	shards := make([][]int, 0, len(keys))
	index := make(map[string]int, len(keys))
	for i, key := range keys {
		if at, ok := index[key]; ok {
			shards[at] = append(shards[at], i)
			continue
		}
		index[key] = len(shards)
		shards = append(shards, []int{i})
	}
	return shards
}

// RunSuiteVia runs the suite through dispatch on a bounded worker pool
// (Engine.Workers wide) and aggregates the per-benchmark results
// deterministically: results land in a slice indexed by suite position
// and are folded in that order, so the aggregate is byte-identical
// whatever the completion order — and identical to a Workers==1 serial
// run.  Suite entries with the same canonical RequestKey are dispatched
// once and share the result.  The first error (including context
// cancellation) aborts the remaining work.
//
// RunSuiteVia answers only on completion; RunSuiteStream is the same
// machinery with per-shard emission as results land.
func (e *Engine) RunSuiteVia(ctx context.Context, suite SuiteRequest, dispatch Dispatcher) (*SuiteResult, error) {
	return e.runSuite(ctx, suite, func(ctx context.Context, _ string, req Request) (*Result, string, error) {
		res, err := dispatch(ctx, req)
		return res, "", err
	}, nil, false)
}

// RunSuitePartial is RunSuiteStream in graceful-degradation mode: a
// shard whose dispatch fails no longer aborts the run.  Instead the
// failure is recorded as a ShardError (emitted to sink, when non-nil,
// as a ShardResult with Err set), its Results positions stay nil, and
// the remaining shards run to completion.  The aggregate folds only the
// shards that completed, so a suite with one dead benchmark still
// answers with well-formed numbers for the rest.
//
// Context cancellation still aborts the whole run, and a suite in which
// every shard fails returns an error rather than an empty result —
// partial results degrade an answer, they don't fabricate one.  A run
// with no failures returns a SuiteResult byte-identical (as JSON) to
// RunSuiteVia/RunSuiteStream of the same suite.
func (e *Engine) RunSuitePartial(ctx context.Context, suite SuiteRequest, dispatch SourcedDispatcher, sink StreamSink) (*SuiteResult, error) {
	return e.runSuite(ctx, suite, dispatch, sink, true)
}

// aggregate folds results in slice order, skipping nil entries (failed
// shards of a partial run).  Benchmarks counts the folded results, so a
// partial aggregate's means stay means over what actually completed.
func aggregate(results []*Result) SuiteAggregate {
	agg := SuiteAggregate{
		Units: map[string]metrics.Triple{},
	}
	sums := map[string]metrics.Triple{}
	for _, r := range results {
		if r == nil {
			continue
		}
		agg.Benchmarks++
		agg.MeanIPC += r.IPC
		agg.MeanTCHitRate += r.TCHitRate
		agg.TotalCycles += r.MeasCycles
		agg.TotalOps += r.MeasOps
		agg.TotalHops += r.TCHops
		for name, t := range r.Units {
			s := sums[name]
			s.AbsMax += t.AbsMax
			s.Average += t.Average
			s.AvgMax += t.AvgMax
			sums[name] = s
		}
	}
	if agg.Benchmarks == 0 {
		return agg
	}
	n := float64(agg.Benchmarks)
	agg.MeanIPC /= n
	agg.MeanTCHitRate /= n
	for name, s := range sums {
		agg.Units[name] = metrics.Triple{
			AbsMax:  s.AbsMax / n,
			Average: s.Average / n,
			AvgMax:  s.AvgMax / n,
		}
	}
	return agg
}
