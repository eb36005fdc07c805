package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// replica is one fleet member with its own store and an engine-run
// counter, both inspectable by the test.
type replica struct {
	store resultstore.Store
	runs  *atomic.Int64
	srv   *httptest.Server
}

func newReplica(t *testing.T) *replica {
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
	srv := httptest.NewServer(simd.NewServerWithStore(eng, store))
	t.Cleanup(srv.Close)
	return &replica{store: store, runs: &runs, srv: srv}
}

// postDirect posts bench straight to a replica, bypassing the
// scheduler and its cache.
func postDirect(t *testing.T, url, bench string) (body []byte, source string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulations", "application/json",
		strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benchmark %s: status %d, body %s", bench, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache")
}

// ringIs reports whether the scheduler routes over exactly nodes.
func ringIs(sched *scheduler.Scheduler, nodes ...string) bool {
	got := sched.Ring().Nodes()
	if len(got) != len(nodes) {
		return false
	}
	for _, n := range nodes {
		if !slices.Contains(got, n) {
			return false
		}
	}
	return true
}

// TestChaosRejoinRecomputesSlice is the churn scenario: a 3-replica
// fleet under continuous suite load loses replica C; the scheduler
// quarantines it and the survivors absorb its slice.  A fresh C with
// an empty store then rejoins the ring.  Replicas never copy results,
// so C computes each key of its slice on first touch: the first direct
// request is a MISS with one engine run, the second a HIT with none,
// and both are byte-identical to the survivor's stored bytes and to a
// serial Engine.Run of the same request.
func TestChaosRejoinRecomputesSlice(t *testing.T) {
	a, b, c := newReplica(t), newReplica(t), newReplica(t)
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

	// Continuous load: suites keep flowing across the kill until C is
	// quarantined; strict mode must keep succeeding throughout (the
	// failover walk absorbs the dead replica).
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

	// The load loop quarantines C through dispatch verdicts.  The
	// quarantining dispatch only happens once the in-flight suite
	// finishes and the next one routes to the dead replica, and a cold
	// suite under -race with the whole repo's tests competing for CPU can
	// take minutes — poll generously, exit fast in the common case.
	// Wait for exactly the survivors: closing C also drops the shared
	// transport's idle connections, so a dispatch to A or B can fail
	// once and quarantine it until the next probe round reinstates it.
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

	// The survivors absorb C's slice: every benchmark ends up in a
	// survivor's store.  One suite is not always enough — it can
	// coalesce onto a dispatch C answered just before it died, whose
	// result then lived only in C's store — but the scheduler's cache
	// answers repeats, so post the missing ones to their ring home.
	survivorBytes := func(key string) []byte {
		for _, r := range []*replica{a, b} {
			if body, ok, _ := resultstore.Peek(context.Background(), r.store, key); ok {
				return body
			}
		}
		return nil
	}
	keyOf := map[string]string{}
	for _, bench := range suite.Benchmarks {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		keyOf[bench] = key
		if survivorBytes(key) == nil {
			postDirect(t, sched.Ring().Node(key), bench)
		}
	}

	// A fresh C, empty store, rejoins the ring.
	fresh := newReplica(t)
	if err := members.Join(fresh.srv.URL); err != nil {
		t.Fatal(err)
	}
	if !ringIs(sched, a.srv.URL, b.srv.URL, fresh.srv.URL) {
		t.Fatalf("ring after the rejoin = %v, want the survivors plus %s", sched.Ring().Nodes(), fresh.srv.URL)
	}

	served := 0
	for _, bench := range suite.Benchmarks {
		key := keyOf[bench]
		if sched.Ring().Node(key) != fresh.srv.URL {
			continue
		}
		served++
		want := survivorBytes(key)
		if want == nil {
			t.Fatalf("benchmark %s missing from every survivor's store", bench)
		}
		res, err := eng.Run(context.Background(), frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, '\n')
		if !bytes.Equal(want, ref) {
			t.Fatalf("benchmark %s: survivor's bytes differ from a serial Engine.Run", bench)
		}

		before := fresh.runs.Load()
		first, src := postDirect(t, fresh.srv.URL, bench)
		if src != "MISS" || fresh.runs.Load()-before != 1 {
			t.Errorf("benchmark %s first request on rejoined C: X-Cache %q, %d engine runs; want MISS, 1",
				bench, src, fresh.runs.Load()-before)
		}
		before = fresh.runs.Load()
		second, src := postDirect(t, fresh.srv.URL, bench)
		if src != "HIT" || fresh.runs.Load() != before {
			t.Errorf("benchmark %s second request on rejoined C: X-Cache %q, %d engine runs; want HIT, 0",
				bench, src, fresh.runs.Load()-before)
		}
		if !bytes.Equal(first, ref) || !bytes.Equal(second, ref) {
			t.Errorf("benchmark %s: rejoined C's bytes differ from the survivor's and the serial reference", bench)
		}
	}
	if served == 0 {
		t.Fatal("no benchmark homed on the rejoined replica")
	}
	t.Logf("rejoined replica recomputed its %d-key slice", served)
}
