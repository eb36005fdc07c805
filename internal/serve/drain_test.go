package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// drainAPI is a Service with a readiness /healthz and a /slow route
// that holds its response until release closes.
type drainAPI struct {
	Readiness
	mux     *http.ServeMux
	entered chan struct{}
	release chan struct{}
	done    atomic.Bool
}

func newDrainAPI() *drainAPI {
	a := &drainAPI{mux: http.NewServeMux(), entered: make(chan struct{}), release: make(chan struct{})}
	a.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !a.Ready() {
			WriteError(w, http.StatusServiceUnavailable, errors.New("draining"))
			return
		}
		fmt.Fprintln(w, "ok")
	})
	a.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		close(a.entered)
		<-a.release
		fmt.Fprint(w, "done")
		a.done.Store(true)
	})
	return a
}

func (a *drainAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// TestRunDrains pins the drain sequence both binaries run when their
// signal context ends: /healthz answers 503 before Shutdown begins, the
// pre-shutdown hook runs while the listener still accepts (so before
// Shutdown), an in-flight request completes through the drain, and Run
// returns only after it has.
func TestRunDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	api := newDrainAPI()
	// Fresh connections only, so every request below proves the
	// listener was still accepting.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	var hookHealthz atomic.Int32
	hook := func() {
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			t.Errorf("healthz from the hook: %v (the listener closed before the hook ran)", err)
			return
		}
		resp.Body.Close()
		hookHealthz.Store(int32(resp.StatusCode))
		// Release the held request once Shutdown has closed the
		// listener, so it completes during the drain.
		go func() {
			for {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					break
				}
				c.Close()
				time.Sleep(time.Millisecond)
			}
			close(api.release)
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- Run(ctx, ln, api, hook) }()

	slow := make(chan string, 1)
	go func() {
		resp, err := client.Get(base + "/slow")
		if err != nil {
			slow <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		slow <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()
	<-api.entered
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before the drain = %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(DrainTimeout + 5*time.Second):
		t.Fatal("Run did not return")
	}
	if !api.done.Load() {
		t.Error("Run returned before the in-flight request completed")
	}
	if got := <-slow; got != "200 done" {
		t.Errorf("in-flight request = %q, want 200 done", got)
	}
	if got := hookHealthz.Load(); got != http.StatusServiceUnavailable {
		t.Errorf("healthz in the pre-shutdown hook = %d, want 503", got)
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepts after Run returned")
	}
}
