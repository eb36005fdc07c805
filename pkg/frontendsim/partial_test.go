package frontendsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRunSuitePartialRecordsShardErrors pins graceful degradation: a
// shard whose dispatch fails is recorded as a ShardError (and emitted
// to the sink with Err set), its Results position stays nil, and the
// aggregate folds only the shards that completed.
func TestRunSuitePartialRecordsShardErrors(t *testing.T) {
	eng := testEngine(WithWorkers(4))
	suite := suiteReq() // gzip, mcf, swim
	boom := errors.New("backend exhausted")

	var shards []ShardResult
	res, err := eng.RunSuitePartial(context.Background(), suite,
		func(ctx context.Context, _ string, req Request) (*Result, string, error) {
			if req.Benchmark == "mcf" {
				return nil, "", boom
			}
			r, err := eng.Run(ctx, req)
			return r, "MISS", err
		},
		func(sh ShardResult) { shards = append(shards, sh) })
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Errors) != 1 {
		t.Fatalf("Errors = %+v, want exactly one entry", res.Errors)
	}
	se := res.Errors[0]
	if se.Benchmark != "mcf" || se.Err != boom.Error() || len(se.Positions) != 1 || se.Positions[0] != 1 {
		t.Errorf("shard error = %+v", se)
	}
	if res.Results[1] != nil {
		t.Error("failed shard's result is non-nil")
	}
	if res.Results[0] == nil || res.Results[2] == nil {
		t.Fatal("surviving shards missing results")
	}
	if res.Aggregate.Benchmarks != 2 {
		t.Errorf("aggregate folds %d benchmarks, want 2", res.Aggregate.Benchmarks)
	}
	wantIPC := (res.Results[0].IPC + res.Results[2].IPC) / 2
	if res.Aggregate.MeanIPC != wantIPC {
		t.Errorf("MeanIPC = %v, want mean over survivors %v", res.Aggregate.MeanIPC, wantIPC)
	}

	// The sink saw the failure too, as a ShardResult with Err set.
	var failed []ShardResult
	for _, sh := range shards {
		if sh.Err != "" {
			failed = append(failed, sh)
		}
	}
	if len(failed) != 1 || failed[0].Benchmark != "mcf" || failed[0].Result != nil {
		t.Errorf("sink failures = %+v, want one mcf entry with nil result", failed)
	}
}

// TestRunSuitePartialCleanRunMatchesStream asserts a failure-free
// partial run is byte-identical (as JSON) to the plain streaming run —
// enabling the mode must not change healthy responses.
func TestRunSuitePartialCleanRunMatchesStream(t *testing.T) {
	eng := testEngine(WithWorkers(4))
	suite := suiteReq()
	dispatch := func(ctx context.Context, _ string, req Request) (*Result, string, error) {
		r, err := eng.Run(ctx, req)
		return r, "MISS", err
	}

	plain, err := eng.RunSuiteStream(context.Background(), suite, dispatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := eng.RunSuitePartial(context.Background(), suite, dispatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(partial)
	if !bytes.Equal(a, b) {
		t.Errorf("clean partial run differs from streaming run:\n%s\n%s", a, b)
	}
	if strings.Contains(string(b), `"errors"`) {
		t.Error("clean run serialized an errors field")
	}
}

// TestRunSuitePartialAllShardsFailed asserts a suite in which every
// shard fails returns an error, not an empty aggregate.
func TestRunSuitePartialAllShardsFailed(t *testing.T) {
	eng := testEngine(WithWorkers(2))
	res, err := eng.RunSuitePartial(context.Background(), suiteReq(),
		func(ctx context.Context, _ string, req Request) (*Result, string, error) {
			return nil, "", fmt.Errorf("no backend for %s", req.Benchmark)
		}, nil)
	if err == nil {
		t.Fatalf("all-failed suite returned %+v, want error", res)
	}
}

// TestRunSuitePartialCancellationStillAborts asserts context
// cancellation is still fatal in partial mode.
func TestRunSuitePartialCancellationStillAborts(t *testing.T) {
	eng := testEngine(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	_, err := eng.RunSuitePartial(ctx, suiteReq(),
		func(ctx context.Context, _ string, req Request) (*Result, string, error) {
			cancel()
			return nil, "", ctx.Err()
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
