package faultinject

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postRule sends body to the control API's POST /rules and returns the
// recorded response.
func postRule(in *Injector, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/rules", strings.NewReader(body))
	in.ControlHandler().ServeHTTP(rec, req)
	return rec
}

func TestControlAPIRejectsInvalidRules(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"status":42}`, http.StatusBadRequest},
		{`{"status":99}`, http.StatusBadRequest},
		{`{"status":600}`, http.StatusBadRequest},
		{`{"status":-1}`, http.StatusBadRequest},
		{`{"latency_ms":-1}`, http.StatusBadRequest},
		{`{"slow_body_ms":-5}`, http.StatusBadRequest},
		{`{"max_count":-1}`, http.StatusBadRequest},
		{`{"probability":-0.5}`, http.StatusBadRequest},
		{`{"probability":1.5}`, http.StatusBadRequest},
		{`{"status":0}`, http.StatusOK},
		{`{"status":100}`, http.StatusOK},
		{`{"status":599,"probability":1}`, http.StatusOK},
		{`{"latency_ms":0,"slow_body_ms":0,"max_count":0,"probability":0}`, http.StatusOK},
		{`{"drop":true,"max_count":3,"probability":0.25}`, http.StatusOK},
	}
	for _, tc := range cases {
		in := New(1)
		rec := postRule(in, tc.body)
		if rec.Code != tc.want {
			t.Errorf("POST /rules %s: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body)
		}
		installed := 0
		if tc.want == http.StatusOK {
			installed = 1
		}
		if got := len(in.Rules()); got != installed {
			t.Errorf("POST /rules %s installed %d rules, want %d", tc.body, got, installed)
		}
	}
}

// stubRoundTripper answers every request with a small 200 body, so the
// fuzz target's proxy has an upstream without a network.
type stubRoundTripper struct{}

func (stubRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"ipc":1.5,"benchmark":"mcf"}`)),
		Request:    req,
	}, nil
}

// FuzzFaultRule posts arbitrary bytes as a rule to the control API.
// When the rule is accepted, one request through a Proxy must complete
// without a panic other than http.ErrAbortHandler, its deliberate
// connection drop.  Run `go test -fuzz FuzzFaultRule ./pkg/faultinject` to hunt
// for longer.
func FuzzFaultRule(f *testing.F) {
	for _, seed := range []string{
		`{"status":42}`,
		`{"status":503,"match":{"method":"POST","path":"/v1/"}}`,
		`{"probability":-1,"drop":true}`,
		`{"latency_ms":5,"slow_body_ms":1,"corrupt_byte":true}`,
		`{"match":{"body_contains":"\"benchmark\":\"mcf\""},"max_count":1,"status":500}`,
		`{"id":"r","match":{"backend":"upstream"},"drop":true,"probability":0.5}`,
		`{"status":101}`,
	} {
		f.Add([]byte(seed))
	}
	const reqBody = `{"benchmark":"mcf"}`
	f.Fuzz(func(t *testing.T, data []byte) {
		in := New(1)
		if rec := postRule(in, string(data)); rec.Code != http.StatusOK {
			return
		}
		// A short deadline ends injected latency and body throttling.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()

		proxy := NewProxy("http://upstream", in, &http.Client{Transport: stubRoundTripper{}})
		req := httptest.NewRequest(http.MethodPost, "/v1/simulations", strings.NewReader(reqBody)).WithContext(ctx)
		defer func() {
			if p := recover(); p != nil && p != http.ErrAbortHandler {
				t.Fatalf("proxy panicked on rule %s: %v", data, p)
			}
		}()
		proxy.ServeHTTP(httptest.NewRecorder(), req)
	})
}
