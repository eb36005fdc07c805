package frontendsim

import (
	"context"
	"fmt"
	"sync"
)

// SourcedDispatcher is a Dispatcher that is also handed the request's
// canonical key and reports how the request was served — the per-shard
// `source` of the streaming suite API.  key equals RequestKey(req): the
// suite derived it from its one template encoding, so the dispatcher
// need not canonicalize again.  The conventional source spellings are
// the X-Cache values ("HIT", "COALESCED", "MISS"); an empty string
// means the dispatcher does not say.
type SourcedDispatcher func(ctx context.Context, key string, req Request) (*Result, string, error)

// ShardResult is one completed shard of a streamed suite run: the
// dispatched result plus where in the suite it belongs and how it was
// served.
type ShardResult struct {
	// Positions are the suite indices sharing this shard's canonical
	// key, ascending (duplicate suite entries dispatch once and share
	// the result).  The slice is owned by the engine; don't mutate it.
	Positions []int `json:"positions"`
	// Benchmark is the dispatched request's benchmark.
	Benchmark string `json:"benchmark"`
	// Source reports how the dispatcher served the shard ("HIT",
	// "COALESCED", "MISS"; empty when unknown).
	Source string `json:"source,omitempty"`
	// Result is the shard's result, shared by every position.  Nil when
	// Err is set.
	Result *Result `json:"result"`
	// Err is the shard's dispatch error, set only in partial-results
	// runs (RunSuitePartial) when the shard failed; Result is nil.
	Err string `json:"error,omitempty"`
}

// StreamSink receives each completed shard of RunSuiteStream the moment
// it lands.  Calls are serialized by the engine (never concurrent), in
// completion order — cached shards typically arrive first, whatever
// their suite position.  The sink must not block longer than the caller
// can afford: it runs on the suite's worker goroutines.
type StreamSink func(ShardResult)

// SuiteStreamLine is one NDJSON line of the POST /v1/suites/stream
// endpoints (internal/simd single-node, pkg/scheduler ring fan-in).
// Type selects which fields are populated:
//
//	"shard"       Positions/Benchmark/Source/Result — one completed shard
//	"shard-error" Positions/Benchmark/Error — one shard failed in a
//	              partial-results run; the run continues and the
//	              terminal aggregate excludes it
//	"aggregate"   Suite — the terminal deterministic SuiteResult,
//	              byte-identical (as JSON) to the blocking POST
//	              /v1/suites response for the same request
//	"error"       Error — the run failed; no aggregate follows
type SuiteStreamLine struct {
	Type      string       `json:"type"`
	Positions []int        `json:"positions,omitempty"`
	Benchmark string       `json:"benchmark,omitempty"`
	Source    string       `json:"source,omitempty"`
	Result    *Result      `json:"result,omitempty"`
	Suite     *SuiteResult `json:"suite,omitempty"`
	Error     string       `json:"error,omitempty"`
}

// Line renders the shard as its NDJSON stream line: a completed shard
// as {"type":"shard"}, a failed shard of a partial run as
// {"type":"shard-error"}.
func (sh ShardResult) Line() SuiteStreamLine {
	if sh.Err != "" {
		return SuiteStreamLine{
			Type:      "shard-error",
			Positions: sh.Positions,
			Benchmark: sh.Benchmark,
			Error:     sh.Err,
		}
	}
	return SuiteStreamLine{
		Type:      "shard",
		Positions: sh.Positions,
		Benchmark: sh.Benchmark,
		Source:    sh.Source,
		Result:    sh.Result,
	}
}

// RunSuiteStream runs the suite through dispatch exactly like
// RunSuiteVia — same sharding, same bounded worker pool, same
// deterministic suite-order aggregation — but additionally emits every
// shard to sink the moment it completes.  The returned SuiteResult is
// byte-identical (as JSON) to RunSuiteVia of the same suite: streaming
// changes when results become visible, never what they are.  A nil sink
// degrades to RunSuiteVia with a sourced dispatcher.
func (e *Engine) RunSuiteStream(ctx context.Context, suite SuiteRequest, dispatch SourcedDispatcher, sink StreamSink) (*SuiteResult, error) {
	return e.runSuite(ctx, suite, dispatch, sink, false)
}

// runSuite is the shared suite executor behind RunSuiteVia and
// RunSuiteStream: a bounded worker pool (Engine.Workers wide) over the
// deduplicated shards, results landing in a slice indexed by suite
// position and folded in that order, so the aggregate is byte-identical
// whatever the completion order — and identical to a Workers==1 serial
// run.  The first error (including context cancellation) aborts the
// remaining work — unless partial is set, in which case dispatch
// failures are recorded per shard (emitted to sink with Err set) and
// the rest of the suite runs to completion; only context cancellation
// still aborts.
func (e *Engine) runSuite(ctx context.Context, suite SuiteRequest, dispatch SourcedDispatcher, sink StreamSink, partial bool) (*SuiteResult, error) {
	reqs, keys, err := e.suiteKeys(suite)
	if err != nil {
		return nil, err
	}
	shards := shardByKey(keys)
	results := make([]*Result, len(reqs))
	// shardErrs[i] is shard i's dispatch error in partial mode; each
	// shard is owned by exactly one worker, so the slots race-free.
	shardErrs := make([]error, len(shards))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.workers
	if workers > len(shards) {
		workers = len(shards)
	}
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		emitMu   sync.Mutex // serializes sink calls across workers
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				positions := shards[i]
				res, source, err := dispatch(ctx, keys[positions[0]], reqs[positions[0]])
				if err != nil {
					// In partial mode only cancellation of the run
					// itself is fatal; a per-shard dispatch failure is
					// recorded and the pool keeps draining.
					if !partial || ctx.Err() != nil {
						fail(err)
						return
					}
					shardErrs[i] = err
					if sink != nil {
						emitMu.Lock()
						sink(ShardResult{
							Positions: positions,
							Benchmark: reqs[positions[0]].Benchmark,
							Err:       err.Error(),
						})
						emitMu.Unlock()
					}
					continue
				}
				for _, p := range positions {
					results[p] = res
				}
				if sink != nil {
					emitMu.Lock()
					sink(ShardResult{
						Positions: positions,
						Benchmark: reqs[positions[0]].Benchmark,
						Source:    source,
						Result:    res,
					})
					emitMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := 0; i < len(shards); i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var shardErrors []ShardError
	if partial {
		failed := 0
		for si, derr := range shardErrs {
			if derr == nil {
				continue
			}
			failed++
			positions := shards[si]
			shardErrors = append(shardErrors, ShardError{
				Positions: positions,
				Benchmark: reqs[positions[0]].Benchmark,
				Err:       derr.Error(),
			})
		}
		if failed == len(shards) && len(shards) > 0 {
			// Every shard failed: there is nothing to degrade to.
			return nil, fmt.Errorf("frontendsim: all %d suite shards failed: %w", len(shards), shardErrs[0])
		}
	}
	return &SuiteResult{Results: results, Errors: shardErrors, Aggregate: aggregate(results)}, nil
}
