package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// testServer runs short simulations so the HTTP tests stay fast.
func testServer(cacheSize int) *Server {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	return NewServer(eng, cacheSize)
}

func post(t *testing.T, srv http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestSimulateEndpoint(t *testing.T) {
	srv := testServer(16)
	w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip","bank_hopping":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	var res frontendsim.Result
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "gzip" || res.MeasCycles == 0 || res.Intervals == 0 {
		t.Errorf("implausible result: %+v", res)
	}
	if !res.Config.TC.Hopping {
		t.Error("bank_hopping toggle not applied")
	}
	if _, ok := res.Units[frontendsim.UnitTraceCache]; !ok {
		t.Error("unit triples missing from response")
	}
}

func TestSimulateCacheHitMiss(t *testing.T) {
	srv := testServer(16)
	first := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`)
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	second := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`)
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("identical request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit served a different body")
	}

	// An equivalent spelling — the explicit baseline config instead of no
	// config — hits the same canonical entry.
	cfg := core.DefaultConfig()
	body, err := json.Marshal(frontendsim.Request{Benchmark: "gzip", Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	spelled := post(t, srv, "/v1/simulations", string(body))
	if got := spelled.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("canonically equivalent request X-Cache = %q, want HIT", got)
	}

	// A semantically different request misses.
	different := post(t, srv, "/v1/simulations", `{"benchmark":"gzip","frontends":2}`)
	if got := different.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("differing request X-Cache = %q, want MISS", got)
	}
	if bytes.Equal(first.Body.Bytes(), different.Body.Bytes()) {
		t.Error("differing request served the cached body")
	}

	stats := httptest.NewRecorder()
	srv.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	var st struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache stats = %+v, want 2 entries, 2 hits, 2 misses", st)
	}
}

func TestStreamEndpoint(t *testing.T) {
	srv := testServer(16)
	w := post(t, srv, "/v1/simulations/stream", `{"benchmark":"gzip"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	type line struct {
		Type     string                `json:"type"`
		Interval *frontendsim.Snapshot `json:"interval"`
		Result   *frontendsim.Result   `json:"result"`
		Error    string                `json:"error"`
	}
	var intervals int
	var final *frontendsim.Result
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch l.Type {
		case "interval":
			if l.Interval == nil || l.Interval.Interval != intervals {
				t.Fatalf("interval line %d malformed: %+v", intervals, l.Interval)
			}
			intervals++
		case "result":
			final = l.Result
		default:
			t.Fatalf("unexpected line type %q (%s)", l.Type, l.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream had no final result line")
	}
	if intervals == 0 || intervals != final.Intervals {
		t.Errorf("streamed %d interval lines, result reports %d intervals", intervals, final.Intervals)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	srv := testServer(0)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/benchmarks", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var out struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 26 {
		t.Errorf("%d benchmarks, want 26", len(out.Benchmarks))
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(0)
	cases := []struct {
		name, path, body string
		wantIn           string
	}{
		{"malformedJSON", "/v1/simulations", `{"benchmark":`, "decode request"},
		{"unknownField", "/v1/simulations", `{"banchmark":"gzip"}`, "unknown field"},
		{"unknownBench", "/v1/simulations", `{"benchmark":"nosuch"}`, "nosuch"},
		{"invalidConfig", "/v1/simulations", `{"benchmark":"gzip","frontends":3}`, "invalid configuration"},
		{"streamUnknownBench", "/v1/simulations/stream", `{"benchmark":"nosuch"}`, "nosuch"},
	}
	for _, tc := range cases {
		w := post(t, srv, tc.path, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, w.Code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, w.Body.String())
			continue
		}
		if !strings.Contains(e.Error, tc.wantIn) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.wantIn)
		}
	}
	// Wrong method routes to 405 via the method-qualified mux patterns.
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/simulations", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulations status = %d, want 405", w.Code)
	}
	// Suites fan in through simsched; simd serves no suite route.
	for _, path := range []string{"/v1/suites", "/v1/suites/stream"} {
		if w := post(t, srv, path, `{"benchmarks":["gzip"]}`); w.Code != http.StatusNotFound {
			t.Errorf("POST %s status = %d, want 404", path, w.Code)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(0)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz status = %d", w.Code)
	}
}

func getHealthz(srv http.Handler) int {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	return w.Code
}

// TestHealthzReadiness pins the readiness semantics the membership
// probes depend on: /healthz goes 503 while draining (SetReady(false))
// and when the response store stops answering (closed), and recovers
// when readiness is restored.
func TestHealthzReadiness(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	store := resultstore.NewMemory(4)
	srv := NewServerWithStore(eng, store)

	if got := getHealthz(srv); got != http.StatusOK {
		t.Fatalf("ready healthz = %d, want 200", got)
	}
	srv.SetReady(false)
	if got := getHealthz(srv); got != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", got)
	}
	srv.SetReady(true)
	if got := getHealthz(srv); got != http.StatusOK {
		t.Fatalf("restored healthz = %d, want 200", got)
	}
	// The readiness peek must not disturb the cache counters.
	if tiers := store.Stats(); tiers[0].Hits != 0 || tiers[0].Misses != 0 {
		t.Errorf("health probes leaked into store stats: %+v", tiers[0])
	}
	store.Close()
	if got := getHealthz(srv); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz with closed store = %d, want 503", got)
	}
}

// TestMetricsEndpoint exercises the instrumented routes and the
// re-exported store counters.
func TestMetricsEndpoint(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	)
	srv := NewServer(eng, 16, WithMetrics(obs.NewRegistry()))
	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Code != http.StatusOK {
		t.Fatalf("simulate status = %d", w.Code)
	}
	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Code != http.StatusOK {
		t.Fatalf("cached simulate status = %d", w.Code)
	}

	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	exposition := w.Body.String()
	for _, want := range []string{
		`http_requests_total{handler="POST /v1/simulations",code="200"} 2`,
		`simd_store_ops_total{tier="memory",op="hit"} 1`,
		`simd_store_ops_total{tier="memory",op="miss"} 1`,
		`simd_ready 1`,
		"http_request_duration_seconds_bucket",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBodyTooLarge asserts the body cap rejects oversized POSTs with
// 413 on every decoding endpoint, and that a request under the cap
// still works on the same server.
func TestBodyTooLarge(t *testing.T) {
	srv := testServer(16)

	// One byte over the cap, otherwise well-formed JSON.
	const head, tail = `{"benchmark":"gzip","unused":"`, `"}`
	huge := head + strings.Repeat("x", serve.MaxBodyBytes+1-len(head)-len(tail)) + tail
	for _, path := range []string{"/v1/simulations", "/v1/simulations/stream"} {
		w := post(t, srv, path, huge)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", path, w.Code)
		}
		var e serve.ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: non-JSON 413 body %q", path, w.Body.String())
		}
	}
	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Code != http.StatusOK {
		t.Errorf("under-cap request status = %d, want 200", w.Code)
	}
}

// TestInternalFaultIs500 pins statusFor: an admission shed is 503, a
// cancelled or expired context is 499, a simulator fault is 422 (every
// replica would fault the same way), and any other failure on a
// validated request is the server's own — 500, not 400, because the
// scheduler's retry classifier treats 4xx as permanent and would refuse
// to fail over.
func TestInternalFaultIs500(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&ShedError{Reason: ShedQueueFull}, http.StatusServiceUnavailable},
		{fmt.Errorf("wrapped: %w", &ShedError{Reason: ShedWaitDeadline}), http.StatusServiceUnavailable},
		{context.Canceled, 499},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), 499},
		{&frontendsim.FaultError{Benchmark: "mesa", Value: "core: no commit"}, http.StatusUnprocessableEntity},
		{errors.New("simd: store fault"), http.StatusInternalServerError},
		{fmt.Errorf("json: %w", errors.New("unsupported value")), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestSimulatorPanicIs422AndServerSurvives: a run that panics inside
// the simulator answers 422, is not stored (a repeat faults again
// instead of hitting), and leaves simd serving other requests.
func TestSimulatorPanicIs422AndServerSurvives(t *testing.T) {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Benchmark == "mcf" {
				panic("observer fault on mcf")
			}
		})),
	)
	srv := NewServer(eng, 16)
	for i := 0; i < 2; i++ {
		w := post(t, srv, "/v1/simulations", `{"benchmark":"mcf"}`)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("faulting run %d: status = %d, want 422; body %s", i, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "observer fault on mcf") {
			t.Errorf("faulting run %d: body %s does not carry the panic value", i, w.Body.String())
		}
	}
	if n := srv.store.Stats()[0].Entries; n != 0 {
		t.Fatalf("store holds %d entries after two faulting runs, want 0", n)
	}
	ok := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`)
	if ok.Code != http.StatusOK || ok.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("request after the fault: status %d X-Cache %q, want 200 MISS", ok.Code, ok.Header().Get("X-Cache"))
	}
}

// apiDocSection returns docs/API.md's "## name" section.
func apiDocSection(t *testing.T, name string) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## "+name+"\n")
	if start < 0 {
		t.Fatalf("docs/API.md has no %q section", name)
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	return section
}

// TestRoutesMatchAPIDoc pins docs/API.md's simd section to the route
// table: every route has a "### `METHOD /path`" heading, and no heading
// names a route simd does not serve.
func TestRoutesMatchAPIDoc(t *testing.T) {
	documented := map[string]bool{}
	for _, line := range strings.Split(apiDocSection(t, "simd endpoints"), "\n") {
		if route, ok := strings.CutPrefix(line, "### `"); ok {
			documented[strings.TrimSuffix(route, "`")] = true
		}
	}
	served := map[string]bool{serve.MetricsRoute: true}
	for _, rt := range routes {
		served[rt.Pattern] = true
	}
	for route := range served {
		if !documented[route] {
			t.Errorf("route %q is not documented in docs/API.md's simd section", route)
		}
	}
	for route := range documented {
		if !served[route] {
			t.Errorf("docs/API.md documents simd route %q, which the route table lacks", route)
		}
	}
}

// metricName matches a backticked snake_case metric family name, with
// or without a label selector.
var metricName = regexp.MustCompile("`([a-z][a-z0-9]*_[a-z0-9_]*)[^`]*`")

// TestMetricsMatchAPIDoc pins the GET /metrics paragraph of docs/API.md's
// simd section to the registry: every family simd renders is named
// there, and every family named there is rendered.
func TestMetricsMatchAPIDoc(t *testing.T) {
	section := apiDocSection(t, "simd endpoints")
	start := strings.Index(section, "### `"+serve.MetricsRoute+"`")
	if start < 0 {
		t.Fatal("docs/API.md's simd section has no GET /metrics paragraph")
	}
	para := section[start:]
	if end := strings.Index(para, "\n### "); end >= 0 {
		para = para[:end]
	}
	documented := map[string]bool{}
	for _, m := range metricName.FindAllStringSubmatch(para, -1) {
		documented[m[1]] = true
	}
	reg := obs.NewRegistry()
	NewServer(frontendsim.New(), 4, WithMetrics(reg))
	rendered := map[string]bool{}
	for _, line := range strings.Split(reg.Render(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			rendered[f[2]] = true
		}
	}
	for name := range rendered {
		if !documented[name] {
			t.Errorf("simd renders %s, which docs/API.md's GET /metrics paragraph does not name", name)
		}
	}
	for name := range documented {
		if !rendered[name] {
			t.Errorf("docs/API.md's simd GET /metrics paragraph names %s, which simd does not render", name)
		}
	}
}
