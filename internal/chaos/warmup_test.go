package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// restartable is a replica behind a stable URL whose process can die and
// come back over the same durable store directory.  While it is down,
// every connection is dropped without a response, as a dead process's
// would be.
type restartable struct {
	dir   string
	store *resultstore.Disk
	runs  *atomic.Int64
	live  atomic.Pointer[http.Handler]
	srv   *httptest.Server
}

func newRestartable(t *testing.T) *restartable {
	t.Helper()
	r := &restartable{dir: t.TempDir()}
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if h := r.live.Load(); h != nil {
			(*h).ServeHTTP(w, req)
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(r.srv.Close)
	r.start(t)
	return r
}

// start opens the store directory, replaying whatever an earlier
// process wrote, and serves over it with a fresh engine-run counter.
func (r *restartable) start(t *testing.T) {
	t.Helper()
	store, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: r.dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	var runs atomic.Int64
	eng := frontendsim.New(append(engineOpts(),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
			}
		})))...)
	var h http.Handler = simd.NewServerWithStore(eng, store)
	r.store, r.runs = store, &runs
	r.live.Store(&h)
}

// kill drops the replica off the network; its store stays open until
// stop, so dispatches already inside the old process can finish.
func (r *restartable) kill() { r.live.Store(nil) }

func (r *restartable) stop(t *testing.T) {
	t.Helper()
	if err := r.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosWarmupRejoinServesWarmSlice is the restart scenario: replica
// C keeps its results in a durable disk store.  It computes its ring
// slice, dies under continuous suite load, is quarantined while the
// survivors absorb its slice, and comes back at the same URL over the
// same store directory.  Replicas never copy results, so what makes C
// warm is only its own store: it is ready at once, and every key of its
// slice is served as a HIT with zero engine runs — both on a direct
// request and when the scheduler routes the slice back to it — with
// bytes identical to a serial Engine.Run of the same request.
func TestChaosWarmupRejoinServesWarmSlice(t *testing.T) {
	a, b, c := newReplica(t), newReplica(t), newRestartable(t)
	eng := frontendsim.New(engineOpts()...)
	var members *membership.Registry
	sched, err := scheduler.New(eng, scheduler.Config{
		Backends:     []string{a.srv.URL, b.srv.URL, c.srv.URL},
		RetryBackoff: time.Millisecond,
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

	suite := frontendsim.SuiteRequest{Benchmarks: frontendsim.Benchmarks()}
	var slice []string
	for _, bench := range suite.Benchmarks {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if sched.Ring().Node(key) == c.srv.URL {
			slice = append(slice, bench)
		}
	}
	if len(slice) == 0 {
		t.Fatal("no benchmark homed on C")
	}

	// One full suite: C computes its slice into its durable store.
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := c.runs.Load(); got != int64(len(slice)) {
		t.Fatalf("C ran its engine %d times for a %d-key slice", got, len(slice))
	}

	// Continuous load across the kill; strict mode must keep succeeding
	// (the failover walk absorbs the dead replica).
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
	c.kill()
	// A cold suite under -race with the whole repo's tests competing for
	// CPU can take minutes before it routes to the dead replica — poll
	// generously, exit fast in the common case.
	deadline := time.Now().Add(2 * time.Minute)
	for !ringIs(sched, a.srv.URL, b.srv.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("ring %v never settled on the survivors under load", sched.Ring().Nodes())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(loadStop)
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}
	c.stop(t)

	// C restarts over the same directory and rejoins the ring.
	c.start(t)
	resp, err := http.Get(c.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz of the restarted replica = %d, want 200", resp.StatusCode)
	}
	if err := members.Join(c.srv.URL); err != nil {
		t.Fatal(err)
	}
	if !ringIs(sched, a.srv.URL, b.srv.URL, c.srv.URL) {
		t.Fatalf("ring after the rejoin = %v, want all three replicas", sched.Ring().Nodes())
	}

	for _, bench := range slice {
		res, err := eng.Run(context.Background(), frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, '\n')
		body, src := postDirect(t, c.srv.URL, bench)
		if src != "HIT" {
			t.Errorf("benchmark %s on restarted C: X-Cache %q, want HIT", bench, src)
		}
		if !bytes.Equal(body, ref) {
			t.Errorf("benchmark %s: restarted C's bytes differ from a serial Engine.Run", bench)
		}
	}
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{Benchmarks: slice}); err != nil {
		t.Fatal(err)
	}
	if got := c.runs.Load(); got != 0 {
		t.Errorf("restarted C recomputed %d times; its durable store must serve its slice", got)
	}
}
