package frontendsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunSuiteStreamMatchesBlocking pins the streaming contract: the
// returned SuiteResult is byte-identical (as JSON) to RunSuiteVia of
// the same suite, and the sink sees every suite position exactly once
// with the dispatcher's source attached.
func TestRunSuiteStreamMatchesBlocking(t *testing.T) {
	eng := testEngine(WithWorkers(4))
	suite := suiteReq()

	blocking, err := eng.RunSuiteVia(context.Background(), suite, eng.Run)
	if err != nil {
		t.Fatal(err)
	}

	var shards []ShardResult
	streamed, err := eng.RunSuiteStream(context.Background(), suite,
		func(ctx context.Context, _ string, req Request) (*Result, string, error) {
			res, err := eng.Run(ctx, req)
			return res, "MISS", err
		},
		func(sh ShardResult) { shards = append(shards, sh) })
	if err != nil {
		t.Fatal(err)
	}

	blockingJSON, err := json.Marshal(blocking)
	if err != nil {
		t.Fatal(err)
	}
	streamedJSON, err := json.Marshal(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blockingJSON, streamedJSON) {
		t.Error("streamed aggregate is not byte-identical to the blocking run")
	}

	// Every suite position emitted exactly once, with the right result
	// and the dispatcher's source.
	seen := map[int]bool{}
	for _, sh := range shards {
		if sh.Source != "MISS" {
			t.Errorf("shard %v source = %q, want MISS", sh.Positions, sh.Source)
		}
		for _, p := range sh.Positions {
			if seen[p] {
				t.Errorf("position %d emitted twice", p)
			}
			seen[p] = true
			if streamed.Results[p] != sh.Result {
				t.Errorf("position %d: emitted result differs from the aggregate's", p)
			}
			if sh.Benchmark != suite.Requests()[sh.Positions[0]].Benchmark {
				t.Errorf("shard %v labelled %q", sh.Positions, sh.Benchmark)
			}
		}
	}
	if len(seen) != len(suite.Requests()) {
		t.Errorf("sink covered %d of %d positions", len(seen), len(suite.Requests()))
	}
}

// TestRunSuiteStreamSharesDuplicateShards asserts duplicate suite
// entries arrive as one sink call carrying every position.
func TestRunSuiteStreamSharesDuplicateShards(t *testing.T) {
	eng := testEngine(WithWorkers(2))
	suite := SuiteRequest{Benchmarks: []string{"gzip", "mcf", "gzip", "gzip"}}

	var dispatches atomic.Int64
	var shards []ShardResult
	res, err := eng.RunSuiteStream(context.Background(), suite,
		func(ctx context.Context, _ string, req Request) (*Result, string, error) {
			dispatches.Add(1)
			r, err := eng.Run(ctx, req)
			return r, "", err
		},
		func(sh ShardResult) { shards = append(shards, sh) })
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("%d sink calls for 2 unique keys, want 2", len(shards))
	}
	if n := dispatches.Load(); n != 2 {
		t.Errorf("%d dispatches for 2 unique keys, want 2", n)
	}
	for _, sh := range shards {
		if sh.Benchmark == "gzip" {
			if want := []int{0, 2, 3}; len(sh.Positions) != 3 ||
				sh.Positions[0] != want[0] || sh.Positions[1] != want[1] || sh.Positions[2] != want[2] {
				t.Errorf("gzip shard positions = %v, want [0 2 3]", sh.Positions)
			}
		}
	}
	if res.Results[0] != res.Results[2] || res.Results[2] != res.Results[3] {
		t.Error("duplicate positions do not share one result")
	}
}

// TestRunSuiteStreamDispatchErrorAborts asserts the first dispatch
// failure cancels the run and surfaces as the returned error, not a
// sink emission.
func TestRunSuiteStreamDispatchErrorAborts(t *testing.T) {
	eng := testEngine(WithWorkers(2))
	boom := errors.New("backend down")

	var emitted int
	_, err := eng.RunSuiteStream(context.Background(), suiteReq(),
		func(ctx context.Context, _ string, req Request) (*Result, string, error) {
			return nil, "", boom
		},
		func(ShardResult) { emitted++ })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the dispatch failure", err)
	}
	if emitted != 0 {
		t.Errorf("%d shards emitted from an all-failing run, want 0", emitted)
	}
}
