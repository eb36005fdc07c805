package scheduler

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// readStream decodes a complete NDJSON body into typed lines.
func readStream(t *testing.T, r io.Reader) []frontendsim.SuiteStreamLine {
	t.Helper()
	var lines []frontendsim.SuiteStreamLine
	sc := bufio.NewScanner(r)
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

// TestSchedulerStreamMatchesBlocking is the fan-in byte-identity test:
// the terminal aggregate line of POST /v1/suites/stream is
// byte-identical (as JSON) to the blocking POST /v1/suites response of
// the same suite, with per-shard sources reflecting the scheduler
// store (MISS cold, HIT warm).
func TestSchedulerStreamMatchesBlocking(t *testing.T) {
	stub, _ := cannedBackend(t, nil)
	sched := newCachedScheduler(t, []string{stub.URL})
	srv := NewServer(sched)
	suite := `{"benchmarks":["gzip","mcf","gzip"],"request":{}}`

	blocking := httptest.NewRecorder()
	srv.ServeHTTP(blocking, httptest.NewRequest(http.MethodPost, "/v1/suites", strings.NewReader(suite)))
	if blocking.Code != http.StatusOK {
		t.Fatalf("blocking status = %d, body %s", blocking.Code, blocking.Body.String())
	}

	streamed := httptest.NewRecorder()
	srv.ServeHTTP(streamed, httptest.NewRequest(http.MethodPost, "/v1/suites/stream", strings.NewReader(suite)))
	if streamed.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", streamed.Code, streamed.Body.String())
	}
	if ct := streamed.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	lines := readStream(t, streamed.Body)
	if len(lines) != 3 { // 2 unique shards + aggregate
		t.Fatalf("%d stream lines, want 3: %+v", len(lines), lines)
	}
	positions := map[int]bool{}
	for _, l := range lines[:2] {
		if l.Type != "shard" || l.Result == nil {
			t.Fatalf("non-shard line before the aggregate: %+v", l)
		}
		// The blocking run warmed the scheduler store for both keys.
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

// TestSchedulerStreamFirstLineBeatsSlowShard is the latency acceptance
// test: with a warm scheduler cache for one shard and a deliberately
// held backend for the other, the cached shard's line arrives on the
// wire while the slow shard is still in flight — the whole point of
// streaming the fan-in.
func TestSchedulerStreamFirstLineBeatsSlowShard(t *testing.T) {
	body, err := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	var gated atomic.Bool
	gate := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if gated.Load() {
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(backend.Close)

	sched := newCachedScheduler(t, []string{backend.URL})
	// Warm the scheduler store for gzip only, then hold the backend.
	if _, err := sched.Dispatch(context.Background(), frontendsim.Request{Benchmark: "gzip"}); err != nil {
		t.Fatal(err)
	}
	gated.Store(true)

	srv := httptest.NewServer(NewServer(sched))
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL+"/v1/suites/stream", "application/json",
		strings.NewReader(`{"benchmarks":["gzip","mcf"],"request":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// The first line must arrive while the mcf dispatch is still held on
	// the gate — it can only be the cached gzip shard.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	firstLine := make(chan frontendsim.SuiteStreamLine, 1)
	scanErr := make(chan error, 1)
	go func() {
		if !sc.Scan() {
			scanErr <- sc.Err()
			return
		}
		var l frontendsim.SuiteStreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			scanErr <- err
			return
		}
		firstLine <- l
	}()
	select {
	case l := <-firstLine:
		if l.Type != "shard" || l.Benchmark != "gzip" || l.Source != "HIT" {
			t.Fatalf("first streamed line = %+v, want the cached gzip shard", l)
		}
	case err := <-scanErr:
		t.Fatalf("stream ended before the first shard line: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no shard line arrived while the slow shard was held — streaming is buffered until completion")
	}

	// Release the held shard and drain the rest: the mcf shard, then the
	// terminal aggregate, byte-identical to the blocking endpoint.
	close(gate)
	var rest []frontendsim.SuiteStreamLine
	for sc.Scan() {
		var l frontendsim.SuiteStreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rest = append(rest, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0].Type != "shard" || rest[0].Benchmark != "mcf" {
		t.Fatalf("remaining lines = %+v, want the mcf shard then the aggregate", rest)
	}
	if rest[1].Type != "aggregate" || rest[1].Suite == nil {
		t.Fatalf("terminal line = %+v, want an aggregate", rest[1])
	}
	aggJSON, err := json.Marshal(rest[1].Suite)
	if err != nil {
		t.Fatal(err)
	}
	blocking, err := http.Post(srv.URL+"/v1/suites", "application/json",
		strings.NewReader(`{"benchmarks":["gzip","mcf"],"request":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer blocking.Body.Close()
	blockingBody, err := io.ReadAll(blocking.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(aggJSON, '\n'), blockingBody) {
		t.Error("streamed aggregate differs from the blocking response")
	}
}

// TestSchedulerStreamDisconnectCancelsDispatch asserts a client that
// hangs up mid-stream cancels the in-flight backend dispatches — no
// shard keeps simulating for a reader that left (and no goroutine
// leaks, which -race plus the test's own timeout would surface).
func TestSchedulerStreamDisconnectCancelsDispatch(t *testing.T) {
	var once sync.Once
	started := make(chan struct{})
	unblocked := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		once.Do(func() { close(started) })
		<-r.Context().Done() // hold until the scheduler hangs up
		close(unblocked)
	}))
	t.Cleanup(backend.Close)

	srv := httptest.NewServer(NewServer(newScheduler(t, []string{backend.URL})))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/suites/stream",
		strings.NewReader(`{"benchmarks":["gzip"],"request":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	<-started // the shard dispatch reached the backend
	cancel()  // client walks away mid-stream
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("backend dispatch not cancelled after the streaming client disconnected")
	}
}

// TestSchedulerStreamErrorLine pins mid-stream failure reporting: when
// a shard exhausts the ring after the 200 is committed, the stream
// ends with a terminal error line instead of an aggregate.
func TestSchedulerStreamErrorLine(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "down"})
	}))
	t.Cleanup(dead.Close)
	srv := NewServer(newScheduler(t, []string{dead.URL}))

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/suites/stream",
		strings.NewReader(`{"benchmarks":["gzip"],"request":{}}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream already committed)", w.Code)
	}
	lines := readStream(t, w.Body)
	if len(lines) != 1 || lines[0].Type != "error" || !strings.Contains(lines[0].Error, "failed on") {
		t.Fatalf("stream lines = %+v, want a single ring-exhausted error line", lines)
	}

	// Before the stream commits, failures are still plain HTTP errors.
	bad := httptest.NewRecorder()
	srv.ServeHTTP(bad, httptest.NewRequest(http.MethodPost, "/v1/suites/stream",
		strings.NewReader(`{"benchmarks":["nosuch"],"request":{}}`)))
	if bad.Code != http.StatusBadRequest {
		t.Errorf("invalid suite status = %d, want 400", bad.Code)
	}
}

// TestSchedulerStreamCoalescesAcrossRequests asserts the streamed path
// runs through the same single-flight stack as everything else: two
// concurrent identical streamed suites produce one backend call, and
// the joiner reports COALESCED.
func TestSchedulerStreamCoalescesAcrossRequests(t *testing.T) {
	gate := make(chan struct{})
	stub, requests := cannedBackend(t, gate)
	sched := newScheduler(t, []string{stub.URL})
	suite := frontendsim.SuiteRequest{Benchmarks: []string{"gzip"}}

	var wg sync.WaitGroup
	sources := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := sched.RunSuiteStream(context.Background(), suite, func(sh frontendsim.ShardResult) {
				sources[i] = sh.Source
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond) // let both reach the flight group
	close(gate)
	wg.Wait()

	if n := requests.Load(); n != 1 {
		t.Errorf("backend saw %d requests for 2 identical streamed suites, want 1", n)
	}
	var miss, coalesced int
	for _, src := range sources {
		switch src {
		case "MISS":
			miss++
		case "COALESCED":
			coalesced++
		}
	}
	if miss != 1 || coalesced != 1 {
		t.Errorf("sources = %v, want one MISS and one COALESCED", sources)
	}
}

// TestSchedulerServerBodyCap asserts oversized bodies get 413 with the
// JSON envelope on every decoding route, and under-cap requests on the
// same server still work.
func TestSchedulerServerBodyCap(t *testing.T) {
	stub, _ := cannedBackend(t, nil)
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends: []string{stub.URL},
		Cache:    resultstore.NewMemory(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sched)

	// One byte over the cap, otherwise well-formed JSON.
	const head, tail = `{"benchmarks":["gzip"],"pad":"`, `"}`
	huge := head + strings.Repeat("x", serve.MaxBodyBytes+1-len(head)-len(tail)) + tail
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/suites"},
		{http.MethodPost, "/v1/suites/stream"},
		{http.MethodPost, "/v1/simulations"},
	} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(route.method, route.path, strings.NewReader(huge)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", route.path, w.Code)
		}
		var e serve.ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: non-JSON 413 body %q", route.path, w.Body.String())
		}
	}
	ok := httptest.NewRecorder()
	srv.ServeHTTP(ok, httptest.NewRequest(http.MethodPost, "/v1/suites",
		strings.NewReader(`{"benchmarks":["gzip"],"request":{}}`)))
	if ok.Code != http.StatusOK {
		t.Errorf("under-cap suite status = %d, want 200 (body %s)", ok.Code, ok.Body.String())
	}
}

// TestSchedulerStreamNotFoundRoutes sanity-checks the route table after
// the new mount: the stream route answers POST only.
func TestSchedulerStreamNotFoundRoutes(t *testing.T) {
	stub, _ := cannedBackend(t, nil)
	srv := NewServer(newScheduler(t, []string{stub.URL}))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/suites/stream", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/suites/stream status = %d, want 405", w.Code)
	}
	if !strings.Contains(Describe(), "/v1/suites/stream") {
		t.Error("Describe() does not mention the stream route")
	}
}
