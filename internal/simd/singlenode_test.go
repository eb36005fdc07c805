package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// singleNode serves suites the single-node way: simsched in front of
// api as its only replica, over real HTTP.  It returns simsched's
// handler and a count of the requests that reached the replica.
func singleNode(t *testing.T, eng *frontendsim.Engine, api http.Handler) (http.Handler, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(replica.Close)
	sched, err := scheduler.New(eng, scheduler.Config{Backends: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return scheduler.NewServer(sched), &hits
}

// decodeStream splits an NDJSON body into typed lines.
func decodeStream(t *testing.T, body *bytes.Buffer) []frontendsim.SuiteStreamLine {
	t.Helper()
	var lines []frontendsim.SuiteStreamLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l frontendsim.SuiteStreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSuiteEndpointDedupsDuplicateKeys posts a suite with repeated
// benchmarks to the single-node mode and asserts the replica simulated
// each unique canonical key once.
func TestSuiteEndpointDedupsDuplicateKeys(t *testing.T) {
	eng, runs := countingEngine(nil)
	api := NewServer(eng, 16)
	front, _ := singleNode(t, eng, api)

	w := post(t, front, "/v1/suites", `{"benchmarks":["gzip","gzip","mcf","gzip"],"request":{}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("suite with 2 unique keys ran the engine %d times, want 2", n)
	}
	var res frontendsim.SuiteResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 || res.Aggregate.Benchmarks != 4 {
		t.Fatalf("suite shape %d results / %d aggregate benchmarks, want 4/4",
			len(res.Results), res.Aggregate.Benchmarks)
	}
	for i, want := range []string{"gzip", "gzip", "mcf", "gzip"} {
		if res.Results[i].Benchmark != want {
			t.Errorf("result %d is %q, want %q", i, res.Results[i].Benchmark, want)
		}
	}
	a, _ := json.Marshal(res.Results[0])
	b, _ := json.Marshal(res.Results[1])
	if !bytes.Equal(a, b) {
		t.Error("duplicate suite entries produced different results")
	}

	// The suite populated the replica's response cache: a plain
	// simulation of one of its entries is a HIT.
	single := post(t, api, "/v1/simulations", `{"benchmark":"mcf"}`)
	if got := single.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("post-suite single request X-Cache = %q, want HIT", got)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("cached single request re-ran the engine (%d total runs)", n)
	}
}

// badSuites are the suites the single-node mode refuses before any
// shard is dispatched.
var badSuites = []struct{ name, body, wantIn string }{
	{"malformedJSON", `{"benchmarks":`, "decode suite request"},
	{"unknownBench", `{"benchmarks":["nosuch"],"request":{}}`, "nosuch"},
	{"emptySelection", `{"benchmarks":[],"request":{}}`, "no benchmarks"},
}

// TestSuiteEndpointRejectsBadSuites covers the error paths of the
// blocking suite route in the single-node mode: each bad suite is a 400
// naming its cause, and none reaches the replica.
func TestSuiteEndpointRejectsBadSuites(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	front, hits := singleNode(t, eng, NewServer(eng, 0))
	for _, tc := range badSuites {
		w := post(t, front, "/v1/suites", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, w.Code)
		}
		if !strings.Contains(w.Body.String(), tc.wantIn) {
			t.Errorf("%s: body %q does not mention %q", tc.name, w.Body.String(), tc.wantIn)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("invalid suites reached the replica %d times", n)
	}
}

// TestSuiteStreamEndpoint pins the suite stream contract of the
// single-node mode: one shard line per unique key covering every suite
// position, a terminal aggregate line, and the aggregate byte-identical
// (as JSON) to the blocking /v1/suites response for the same request.
func TestSuiteStreamEndpoint(t *testing.T) {
	eng, runs := countingEngine(nil)
	front, _ := singleNode(t, eng, NewServer(eng, 16))
	suite := `{"benchmarks":["gzip","mcf","gzip"],"request":{"bank_hopping":true}}`

	blocking := post(t, front, "/v1/suites", suite)
	if blocking.Code != http.StatusOK {
		t.Fatalf("blocking status = %d, body %s", blocking.Code, blocking.Body.String())
	}

	streamed := post(t, front, "/v1/suites/stream", suite)
	if streamed.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", streamed.Code, streamed.Body.String())
	}
	if ct := streamed.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	// The whole suite ran warm on the replica from the blocking request.
	if n := runs.Load(); n != 2 {
		t.Errorf("replica ran the engine %d times for 2 unique keys over both requests", n)
	}

	lines := decodeStream(t, streamed.Body)
	if len(lines) != 3 { // 2 unique shards + aggregate
		t.Fatalf("%d stream lines, want 3", len(lines))
	}
	positions := map[int]bool{}
	for _, l := range lines[:2] {
		if l.Type != "shard" || l.Result == nil {
			t.Fatalf("non-shard line before the aggregate: %+v", l)
		}
		if l.Source == "" {
			t.Errorf("shard %q has no source", l.Benchmark)
		}
		for _, p := range l.Positions {
			positions[p] = true
		}
	}
	if len(positions) != 3 {
		t.Errorf("shard lines cover %d of 3 suite positions", len(positions))
	}

	last := lines[2]
	if last.Type != "aggregate" || last.Suite == nil {
		t.Fatalf("terminal line is %+v, want an aggregate", last)
	}
	aggJSON, err := json.Marshal(last.Suite)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(aggJSON, '\n'), blocking.Body.Bytes()) {
		t.Error("streamed aggregate is not byte-identical to the blocking /v1/suites response")
	}
}

// TestSuiteStreamBadRequest asserts pre-stream failures of the
// single-node suite stream are plain JSON errors with the right status,
// not NDJSON, and that none reaches the replica.
func TestSuiteStreamBadRequest(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	front, hits := singleNode(t, eng, NewServer(eng, 0))
	for _, tc := range badSuites {
		w := post(t, front, "/v1/suites/stream", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct == "application/x-ndjson" {
			t.Errorf("%s: pre-stream error sent as NDJSON", tc.name)
		}
		var e serve.ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, tc.wantIn) {
			t.Errorf("%s: error body %q does not mention %q", tc.name, w.Body.String(), tc.wantIn)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("invalid suites reached the replica %d times", n)
	}
}

// lyingStore reports a hit with bytes that do not decode as a Result:
// a corrupt store entry.
type lyingStore struct{ resultstore.Store }

func (s lyingStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return []byte("not json"), true, nil
}

// TestSuiteStreamErrorLine asserts a failure after the single-node
// suite stream began — here the replica serving a corrupt store entry —
// is reported as a terminal error line on the committed 200 response.
func TestSuiteStreamErrorLine(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	front, _ := singleNode(t, eng, NewServerWithStore(eng, lyingStore{resultstore.NewMemory(4)}))

	w := post(t, front, "/v1/suites/stream", `{"benchmarks":["gzip"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream already committed)", w.Code)
	}
	lines := decodeStream(t, w.Body)
	if len(lines) != 1 || lines[0].Type != "error" || lines[0].Error == "" {
		t.Fatalf("stream lines = %+v, want a single error line", lines)
	}
}
