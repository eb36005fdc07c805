package simd

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestGracefulShutdownDrainsStream pins the drain contract of cmd/simd:
// once shutdown begins, /healthz flips to 503 first (so probes stop
// routing new work here), and an in-flight /v1/simulations/stream run
// completes through srv.Shutdown — the client still receives every
// remaining interval line and the terminal result line.
func TestGracefulShutdownDrainsStream(t *testing.T) {
	api := testServer(16)
	srv := &http.Server{Handler: api}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()

	// A longer run than the test default, so the stream is still
	// producing interval lines when shutdown begins.
	resp, err := http.Post(base+"/v1/simulations/stream", "application/json",
		strings.NewReader(`{"benchmark":"gzip","measure_ops":240000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first stream line: %v", sc.Err())
	}

	// The stream is mid-flight.  Begin the cmd/simd shutdown sequence:
	// readiness off, then drain.
	api.SetReady(false)
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hr.StatusCode)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The in-flight stream must run to its terminal result line even
	// though the listener is closed and Shutdown is waiting.
	last := ""
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broken during drain: %v", err)
	}
	if !strings.HasPrefix(last, `{"type":"result"`) {
		t.Errorf("terminal line = %.80q, want a result line", last)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	<-serveDone
}
