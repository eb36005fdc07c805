package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

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

// TestSuiteStreamEndpoint pins the /v1/suites/stream contract: one
// shard line per unique key with plausible sources, a terminal
// aggregate line, and the aggregate byte-identical (as JSON) to the
// blocking /v1/suites response for the same request.
func TestSuiteStreamEndpoint(t *testing.T) {
	srv := testServer(16)
	suite := `{"benchmarks":["gzip","mcf","gzip"],"request":{"bank_hopping":true}}`

	blocking := post(t, srv, "/v1/suites", suite)
	if blocking.Code != http.StatusOK {
		t.Fatalf("blocking status = %d, body %s", blocking.Code, blocking.Body.String())
	}

	streamed := post(t, srv, "/v1/suites/stream", suite)
	if streamed.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", streamed.Code, streamed.Body.String())
	}
	if ct := streamed.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
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
		// The whole suite ran warm from the earlier blocking request.
		if l.Source != "HIT" {
			t.Errorf("shard %q source = %q, want HIT (warmed by the blocking run)", l.Benchmark, l.Source)
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

// TestSuiteStreamBadRequest asserts pre-stream failures are plain JSON
// errors with the right status, not NDJSON.
func TestSuiteStreamBadRequest(t *testing.T) {
	srv := testServer(0)
	w := post(t, srv, "/v1/suites/stream", `{"benchmarks":["nosuch"]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "nosuch") {
		t.Errorf("error body %q", w.Body.String())
	}
}

// TestBodyTooLarge asserts the body cap rejects oversized POSTs with
// 413 on every decoding endpoint, and that a request under the cap
// still works on the same server.
func TestBodyTooLarge(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	srv := NewServer(eng, 16)

	// One byte over the cap, otherwise well-formed JSON.
	const head, tail = `{"benchmark":"gzip","unused":"`, `"}`
	huge := head + strings.Repeat("x", DefaultMaxBodyBytes+1-len(head)-len(tail)) + tail
	for _, path := range []string{
		"/v1/simulations", "/v1/simulations/stream", "/v1/suites", "/v1/suites/stream",
	} {
		w := post(t, srv, path, huge)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, w.Code)
		}
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: non-JSON 413 body %q", path, w.Body.String())
		}
	}
	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Code != http.StatusOK {
		t.Errorf("under-cap request status = %d, want 200", w.Code)
	}
}

// lyingStore reports a hit with bytes that do not decode as a Result —
// the internal-fault injection for the 5xx regression test.
type lyingStore struct{ resultstore.Store }

func (s lyingStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return []byte("not json"), true, nil
}

// TestInternalFaultIs500 pins the statusFor fix: a server-side failure
// on a valid request (here, a corrupt store entry feeding the suite
// path) must surface as 500, not 400 — the scheduler's retry
// classifier treats 4xx as permanent and would refuse to fail over.
func TestInternalFaultIs500(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	srv := NewServerWithStore(eng, lyingStore{resultstore.NewMemory(4)})

	w := post(t, srv, "/v1/suites", `{"benchmarks":["gzip"]}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	var e apiError
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "decode cached result") {
		t.Errorf("error body %q", w.Body.String())
	}
}

// TestSuiteStreamErrorLine asserts a failure after the stream began is
// reported as a terminal error line on the committed 200 response.
func TestSuiteStreamErrorLine(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	srv := NewServerWithStore(eng, lyingStore{resultstore.NewMemory(4)})

	w := post(t, srv, "/v1/suites/stream", `{"benchmarks":["gzip"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream already committed)", w.Code)
	}
	lines := decodeStream(t, w.Body)
	if len(lines) != 1 || lines[0].Type != "error" || lines[0].Error == "" {
		t.Fatalf("stream lines = %+v, want a single error line", lines)
	}
}
