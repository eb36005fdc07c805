package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newEchoBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Backend", "echo")
		fmt.Fprintf(w, "echo:%s:%s", r.URL.Path, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestProxyPassthrough(t *testing.T) {
	backend := newEchoBackend(t)
	proxy := httptest.NewServer(NewProxy(backend.URL, New(1), nil))
	defer proxy.Close()

	resp, err := http.Post(proxy.URL+"/v1/simulations", "application/json", strings.NewReader(`{"benchmark":"gzip"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != `echo:/v1/simulations:{"benchmark":"gzip"}` {
		t.Fatalf("passthrough = %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Backend") != "echo" {
		t.Error("backend headers not forwarded")
	}
}

// TestProxyStatusInjection short-circuits matching requests with the
// rule's status and a JSON error envelope; non-matching ones pass
// through.  The composed case puts a latency rule and a status rule on
// one request: the latency is paid, then the status is served.
func TestProxyStatusInjection(t *testing.T) {
	cases := []struct {
		name        string
		rules       []Rule
		status      int
		minLatency  time.Duration
		passthrough string // a GET path no rule matches
	}{
		{
			name:        "status",
			rules:       []Rule{{Match: Match{Path: "/v1/"}, Status: 500}},
			status:      500,
			passthrough: "/healthz",
		},
		{
			name: "latency+status",
			rules: []Rule{
				{Match: Match{Method: "POST"}, LatencyMs: 30},
				{Match: Match{Method: "POST"}, Status: 502},
			},
			status:      502,
			minLatency:  30 * time.Millisecond,
			passthrough: "/v1/x",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend := newEchoBackend(t)
			in := New(1)
			for _, r := range tc.rules {
				in.Add(r)
			}
			proxy := httptest.NewServer(NewProxy(backend.URL, in, nil))
			defer proxy.Close()

			start := time.Now()
			resp, err := http.Post(proxy.URL+"/v1/simulations", "application/json", strings.NewReader(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if took := time.Since(start); took < tc.minLatency {
				t.Errorf("latency rule not applied: round trip took %v, want >= %v", took, tc.minLatency)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want injected %d", resp.StatusCode, tc.status)
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == "" {
				t.Fatalf("injected status body is not the JSON error envelope: %v %q", err, env.Error)
			}
			resp2, err := http.Get(proxy.URL + tc.passthrough)
			if err != nil {
				t.Fatal(err)
			}
			resp2.Body.Close()
			if resp2.StatusCode != 200 {
				t.Errorf("non-matching GET %s got %d", tc.passthrough, resp2.StatusCode)
			}
			if st := in.Stats(); st.Status != 1 {
				t.Errorf("status injections = %d, want 1", st.Status)
			}
		})
	}
}

// TestProxyDropInjection aborts matching requests without a response:
// every request under an unbounded rule, only the first under
// MaxCount 1.
func TestProxyDropInjection(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxCount int
		dropped  int // of three requests
	}{
		{"unbounded", 0, 3},
		{"max_count", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := newEchoBackend(t)
			in := New(1)
			in.Add(Rule{Drop: true, MaxCount: tc.maxCount})
			proxy := httptest.NewServer(NewProxy(backend.URL, in, nil))
			defer proxy.Close()

			for i := 0; i < 3; i++ {
				resp, err := http.Get(proxy.URL + "/x")
				if wantDrop := i < tc.dropped; wantDrop != (err != nil) {
					t.Fatalf("request %d: error %v, want dropped=%v", i, err, wantDrop)
				}
				if err == nil {
					resp.Body.Close()
				}
			}
			if st := in.Stats(); st.Drop != uint64(tc.dropped) {
				t.Errorf("drop injections = %d, want %d", st.Drop, tc.dropped)
			}
		})
	}
}

func TestProxyBodyMatchAndMaxCount(t *testing.T) {
	backend := newEchoBackend(t)
	in := New(1)
	in.Add(Rule{Match: Match{BodyContains: `"benchmark":"mcf"`}, Status: 503, MaxCount: 2})
	proxy := httptest.NewServer(NewProxy(backend.URL, in, nil))
	defer proxy.Close()

	post := func(body string) int {
		resp, err := http.Post(proxy.URL+"/v1/simulations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post(`{"benchmark":"gzip"}`); got != 200 {
		t.Errorf("gzip got %d", got)
	}
	if got := post(`{"benchmark":"mcf"}`); got != 503 {
		t.Errorf("mcf #1 got %d, want 503", got)
	}
	if got := post(`{"benchmark":"mcf"}`); got != 503 {
		t.Errorf("mcf #2 got %d, want 503", got)
	}
	if got := post(`{"benchmark":"mcf"}`); got != 200 {
		t.Errorf("mcf #3 got %d, want 200 after MaxCount", got)
	}
}

func TestProxyCorruptByte(t *testing.T) {
	payload := strings.Repeat("A", 256)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, payload)
	}))
	defer backend.Close()
	in := New(7)
	in.Add(Rule{CorruptByte: true})
	proxy := httptest.NewServer(NewProxy(backend.URL, in, nil))
	defer proxy.Close()

	resp, err := http.Get(proxy.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if len(body) != len(payload) {
		t.Fatalf("corrupted body length %d, want %d", len(body), len(payload))
	}
	diff := 0
	for i := range body {
		if body[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1", diff)
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	draw := func(seed int64) []bool {
		in := New(seed)
		in.Add(Rule{Probability: 0.5, Status: 500})
		out := make([]bool, 32)
		for i := range out {
			d := in.decide("POST", "/x", "b", nil)
			out[i] = d.status != 0
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 32-draw sequence")
	}
}

func TestControlAPI(t *testing.T) {
	backend := newEchoBackend(t)
	in := New(1)
	proxy := httptest.NewServer(NewProxy(backend.URL, in, nil))
	defer proxy.Close()

	// Install a rule over the wire.
	resp, err := http.Post(proxy.URL+ControlPrefix+"/rules", "application/json",
		strings.NewReader(`{"match":{"path":"/v1/"},"status":500}`))
	if err != nil {
		t.Fatal(err)
	}
	var added struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if added.ID == "" {
		t.Fatal("POST /rules returned no id")
	}

	if r2, err := http.Post(proxy.URL+"/v1/x", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if r2.StatusCode != 500 {
			t.Fatalf("installed rule not applied: %d", r2.StatusCode)
		}
	}

	// List shows the rule with its injection count.
	r3, err := http.Get(proxy.URL + ControlPrefix + "/rules")
	if err != nil {
		t.Fatal(err)
	}
	var rules []Rule
	if err := json.NewDecoder(r3.Body).Decode(&rules); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if len(rules) != 1 || rules[0].Injected != 1 {
		t.Fatalf("rules = %+v, want 1 rule with 1 injection", rules)
	}

	// Delete it; traffic flows again.
	req, _ := http.NewRequest(http.MethodDelete, proxy.URL+ControlPrefix+"/rules?id="+added.ID, nil)
	r4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != 200 {
		t.Fatalf("DELETE rule: %d", r4.StatusCode)
	}
	r5, err := http.Post(proxy.URL+"/v1/x", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != 200 {
		t.Fatalf("after delete: %d", r5.StatusCode)
	}
}

func TestCorrupterDeterminism(t *testing.T) {
	mk := func() []byte { return bytes.Repeat([]byte{0x11}, 64) }
	a, b := mk(), mk()
	i := NewCorrupter(5).FlipByte(a)
	j := NewCorrupter(5).FlipByte(b)
	if i != j || !bytes.Equal(a, b) {
		t.Fatalf("same seed corrupted different bytes: %d vs %d", i, j)
	}
	if a[i] != 0x11^0xff {
		t.Errorf("byte %d = %#x, want flipped", i, a[i])
	}
	c := NewCorrupter(5)
	if n := c.TornTail(100, 16); n < 1 || n > 16 {
		t.Errorf("TornTail = %d, want 1..16", n)
	}
	if n := c.TornTail(1, 8); n != 0 {
		t.Errorf("TornTail of 1-byte file = %d, want 0", n)
	}
	if idx := NewCorrupter(9).FlipByteIn(mk(), 10, 20); idx < 10 || idx >= 20 {
		t.Errorf("FlipByteIn = %d, want in [10,20)", idx)
	}
}
