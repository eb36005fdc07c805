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

// newProxy serves a Proxy to target through in, closed when the test
// ends.
func newProxy(t *testing.T, target string, in *Injector) *httptest.Server {
	t.Helper()
	p, err := NewProxy(target, in)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return srv
}

func TestProxyPassthrough(t *testing.T) {
	backend := newEchoBackend(t)
	proxy := newProxy(t, backend.URL, New(1))

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
			rules:       []Rule{{Path: "/v1/", Status: 500}},
			status:      500,
			passthrough: "/healthz",
		},
		{
			name: "latency+status",
			rules: []Rule{
				{Path: "/v1/simulations", Latency: 30 * time.Millisecond},
				{Path: "/v1/simulations", Status: 502},
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
			proxy := newProxy(t, backend.URL, in)

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
			proxy := newProxy(t, backend.URL, in)

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
	in.Add(Rule{BodyContains: `"benchmark":"mcf"`, Status: 503, MaxCount: 2})
	proxy := newProxy(t, backend.URL, in)

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

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	draw := func(seed int64) []bool {
		in := New(seed)
		in.Add(Rule{Probability: 0.5, Status: 500})
		out := make([]bool, 32)
		for i := range out {
			d := in.decide("/x", nil)
			out[i] = d.Status != 0
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

// TestRemoveRestoresPassthrough installs a rule, sees it applied, and
// removes it by the ID Add returned: traffic flows again, and removing
// it a second time reports that no such rule exists.
func TestRemoveRestoresPassthrough(t *testing.T) {
	backend := newEchoBackend(t)
	in := New(1)
	proxy := newProxy(t, backend.URL, in)

	post := func() int {
		resp, err := http.Post(proxy.URL+"/v1/x", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	id := in.Add(Rule{Path: "/v1/", Status: 500})
	if got := post(); got != 500 {
		t.Fatalf("installed rule not applied: %d", got)
	}
	if !in.Remove(id) {
		t.Fatalf("Remove(%q) found no rule", id)
	}
	if got := post(); got != 200 {
		t.Fatalf("after Remove: %d", got)
	}
	if in.Remove(id) {
		t.Errorf("second Remove(%q) reported a rule", id)
	}
	if st := in.Stats(); st.Requests != 2 || st.Status != 1 {
		t.Errorf("stats = %+v, want 2 requests and 1 injected status", st)
	}
}

// TestProxyForwardsWholeBody sends a body twice the size BodyContains
// matches against through a rule-less proxy: the backend must receive
// every byte, not the matched prefix.
func TestProxyForwardsWholeBody(t *testing.T) {
	backend := newEchoBackend(t)
	proxy := newProxy(t, backend.URL, New(1))

	body := bytes.Repeat([]byte("0123456789abcdef"), 2*maxPeekBody/16)
	resp, err := http.Post(proxy.URL+"/big", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("echo:/big:"), body...)
	if resp.StatusCode != 200 || !bytes.Equal(got, want) {
		t.Fatalf("status %d, echoed %d bytes; want 200 and the whole %d-byte body", resp.StatusCode, len(got), len(want))
	}
}
