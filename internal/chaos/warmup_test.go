package chaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashring"
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// warmReplica is one self-healing fleet member: a simd server with its
// own store, metrics registry, and engine-run counter.
type warmReplica struct {
	api   *simd.Server
	store resultstore.Store
	reg   *obs.Registry
	runs  *atomic.Int64
	srv   *httptest.Server
}

func newWarmReplica(t *testing.T) *warmReplica {
	t.Helper()
	store := resultstore.NewMemory(128)
	t.Cleanup(func() { store.Close() })
	var runs atomic.Int64
	eng := frontendsim.New(append(engineOpts(),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
			}
		})))...)
	reg := obs.NewRegistry()
	api := simd.NewServerWithStore(eng, store, simd.WithMetrics(reg))
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &warmReplica{api: api, store: store, reg: reg, runs: &runs, srv: srv}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestChaosWarmupRejoinServesWarmSlice is the churn-and-repair
// scenario: a 3-replica fleet under continuous suite load loses replica
// C; the scheduler quarantines it and the survivors absorb its slice.
// A fresh C then rejoins through join-time convergence — /healthz held
// at 503 while anti-entropy pulls its slice from the survivors — and
// must serve every request of its ring slice with X-Cache: HIT, zero
// engine runs, and simd_antientropy_pulled_total > 0.
func TestChaosWarmupRejoinServesWarmSlice(t *testing.T) {
	a, b, c := newWarmReplica(t), newWarmReplica(t), newWarmReplica(t)
	eng := frontendsim.New(engineOpts()...)
	reg := obs.NewRegistry()
	var members *membership.Registry
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:     []string{a.srv.URL, b.srv.URL, c.srv.URL},
		RetryBackoff: time.Millisecond,
		Metrics:      reg,
		ReportDispatch: func(node string, err error) {
			if members != nil {
				members.ReportDispatch(node, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	members, err = membership.New(membership.Config{
		QuarantineAfter: 1,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
	}, []string{a.srv.URL, b.srv.URL, c.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer members.Close()
	schedSrv := httptest.NewServer(scheduler.NewServer(sched, scheduler.WithMembership(members)))
	t.Cleanup(schedSrv.Close)

	suite := frontendsim.SuiteRequest{Benchmarks: frontendsim.Benchmarks()}

	// Continuous load: suites keep flowing before, during and after the
	// kill; strict mode must keep succeeding throughout (the failover
	// walk absorbs the dead replica).
	loadStop := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		defer close(loadDone)
		for {
			select {
			case <-loadStop:
				return
			default:
			}
			if _, err := sched.RunSuite(context.Background(), suite); err != nil {
				loadDone <- fmt.Errorf("suite under churn: %w", err)
				return
			}
		}
	}()

	// Let at least one full suite land, then kill C mid-load.
	time.Sleep(50 * time.Millisecond)
	c.srv.Close()

	// The load loop quarantines C through dispatch verdicts; wait for
	// the ring to shrink to the survivors.  The quarantining dispatch
	// only happens once the in-flight suite finishes and the next one
	// routes to the dead replica, and a cold 26-benchmark suite under
	// -race with the whole repo's tests competing for CPU can take
	// minutes — poll generously, exit fast in the common case.
	deadline := time.Now().Add(2 * time.Minute)
	for len(sched.Ring().Nodes()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("dead replica never quarantined under load")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// More full suites until every benchmark (including C's absorbed
	// slice) is present in a survivor's store.  One suite is not always
	// enough: it can coalesce onto a load-loop dispatch that C answered
	// just before it died, whose result then lives only in C's store.
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, inA, _ := resultstore.Peek(context.Background(), a.store, key)
			_, inB, _ := resultstore.Peek(context.Background(), b.store, key)
			if inA || inB {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("benchmark %s never reached a survivor's store", bench)
			}
			if _, err := sched.RunSuite(context.Background(), suite); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fresh C rejoins: cold store, /healthz 503 until convergence
	// pulls its slice from the survivors.
	fresh := newWarmReplica(t)
	fresh.api.SetReady(false)
	if code, _ := getBody(t, fresh.srv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during convergence = %d, want 503", code)
	}
	ae, err := fresh.api.NewAntiEntropy(simd.AntiEntropyConfig{
		SelfURL: fresh.srv.URL,
		Peers:   []string{a.srv.URL, b.srv.URL},
		RingURL: schedSrv.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	convergeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := ae.Converge(convergeCtx); err != nil {
		t.Fatalf("join-time convergence: %v", err)
	}
	if code, _ := getBody(t, fresh.srv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after convergence, before ready flip = %d, want 503", code)
	}
	fresh.api.SetReady(true)

	close(loadStop)
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}

	// The rejoined replica serves its ring slice — the slice of the
	// ring it will route under once joined — entirely from the warmed
	// store: X-Cache: HIT on every request, zero engine runs.
	ring, err := hashring.New([]string{a.srv.URL, b.srv.URL, fresh.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if ring.Node(key) != fresh.srv.URL {
			continue
		}
		served++
		resp, err := http.Post(fresh.srv.URL+"/v1/simulations", "application/json",
			strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "HIT" {
			t.Errorf("benchmark %s on rejoined replica: status %d X-Cache %q",
				bench, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
	}
	if served == 0 {
		t.Fatal("no benchmark homed on the rejoined replica")
	}
	if runs := fresh.runs.Load(); runs != 0 {
		t.Errorf("rejoined replica recomputed %d times; the warmed slice must serve from store", runs)
	}
	_, exposition := getBody(t, fresh.srv.URL+"/metrics")
	if n := metricSum(t, exposition, "simd_antientropy_pulled_total", ""); n <= 0 {
		t.Errorf("simd_antientropy_pulled_total = %v, want > 0 after a pulling convergence", n)
	}
}
