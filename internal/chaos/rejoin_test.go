package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

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

// serialBytes is the body simd serves for bench: a serial Engine.Run of
// the same request, encoded as simd encodes it.
func serialBytes(t *testing.T, eng *frontendsim.Engine, bench string) []byte {
	t.Helper()
	res, err := eng.Run(context.Background(), frontendsim.Request{Benchmark: bench})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return append(ref, '\n')
}

// killUnderLoad runs suite through sched continuously, kills victim
// mid-load, and returns once the ring has settled on exactly survivors.
// Strict mode must keep succeeding throughout: the failover walk
// absorbs the dead replica.
func killUnderLoad(t *testing.T, sched *scheduler.Scheduler, suite frontendsim.SuiteRequest, victim *fleet.Replica, survivors ...string) {
	t.Helper()
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

	// Let at least one suite get going, then kill the victim.
	time.Sleep(50 * time.Millisecond)
	victim.Kill()

	// The load loop quarantines the victim through dispatch verdicts.
	// The quarantining dispatch only happens once the in-flight suite
	// finishes and the next one routes to the dead replica, and a cold
	// suite under -race with the whole repo's tests competing for CPU can
	// take minutes — poll generously, exit fast in the common case.  The
	// wait is for exactly the survivors, so a survivor quarantined by
	// mistake fails here, naming the ring.
	ringErr := fleet.WaitRing(sched, 2*time.Minute, survivors...)
	close(loadStop)
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}
	if ringErr != nil {
		t.Fatal(ringErr)
	}
}

// TestChaosRejoinRecomputesSlice is the churn scenario: a 3-replica
// fleet under continuous suite load loses replica C; the scheduler
// quarantines it and the survivors absorb its slice.  C then restarts
// with an empty store and rejoins the ring.  Replicas never copy
// results, so C computes each key of its slice on first touch: the
// first direct request is a MISS with one engine run, the second a HIT
// with none, and both are byte-identical to the survivor's stored bytes
// and to a serial Engine.Run of the same request.
func TestChaosRejoinRecomputesSlice(t *testing.T) {
	f := newFleet(t, fleet.Config{Replicas: 3})
	a, b, c := f.Replicas[0], f.Replicas[1], f.Replicas[2]
	eng := f.Engine
	sched, members := newScheduler(t, f, scheduler.Config{RetryBackoff: time.Millisecond},
		&membership.Config{QuarantineAfter: 1, EvictAfter: -1})

	suite := frontendsim.SuiteRequest{Benchmarks: frontendsim.Benchmarks()}
	killUnderLoad(t, sched, suite, c, a.URL, b.URL)

	// The survivors absorb C's slice: every benchmark ends up in a
	// survivor's store.  One suite is not always enough — it can
	// coalesce onto a dispatch C answered just before it died, whose
	// result then lived only in C's store — but the scheduler's cache
	// answers repeats, so post the missing ones to their ring home.
	survivorBytes := func(key string) []byte {
		for _, r := range []*fleet.Replica{a, b} {
			if body, ok, _ := resultstore.Peek(context.Background(), r.Store(), key); ok {
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

	// C comes back with an empty store and rejoins the ring.
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := members.Join(c.URL); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WaitRing(sched, time.Second, a.URL, b.URL, c.URL); err != nil {
		t.Fatal(err)
	}

	served := 0
	for _, bench := range suite.Benchmarks {
		key := keyOf[bench]
		if sched.Ring().Node(key) != c.URL {
			continue
		}
		served++
		want := survivorBytes(key)
		if want == nil {
			t.Fatalf("benchmark %s missing from every survivor's store", bench)
		}
		ref := serialBytes(t, eng, bench)
		if !bytes.Equal(want, ref) {
			t.Fatalf("benchmark %s: survivor's bytes differ from a serial Engine.Run", bench)
		}

		before := c.Runs()
		first, src := postDirect(t, c.URL, bench)
		if src != "MISS" || c.Runs()-before != 1 {
			t.Errorf("benchmark %s first request on rejoined C: X-Cache %q, %d engine runs; want MISS, 1",
				bench, src, c.Runs()-before)
		}
		before = c.Runs()
		second, src := postDirect(t, c.URL, bench)
		if src != "HIT" || c.Runs() != before {
			t.Errorf("benchmark %s second request on rejoined C: X-Cache %q, %d engine runs; want HIT, 0",
				bench, src, c.Runs()-before)
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

// TestChaosRestartServesWarmSlice is the restart scenario: replica C
// keeps its results in a durable disk store.  It computes its ring
// slice, dies under continuous suite load, is quarantined while the
// survivors absorb its slice, and comes back at the same URL over the
// same store directory.  Replicas never copy results, so what makes C
// warm is only its own store: it is ready at once, and every key of its
// slice is served as a HIT with zero engine runs — both on a direct
// request and when the scheduler routes the slice back to it — with
// bytes identical to a serial Engine.Run of the same request.
func TestChaosRestartServesWarmSlice(t *testing.T) {
	f := newFleet(t, fleet.Config{Replicas: 3, Store: fleet.DiskStore(0)})
	a, b, c := f.Replicas[0], f.Replicas[1], f.Replicas[2]
	eng := f.Engine
	sched, members := newScheduler(t, f, scheduler.Config{RetryBackoff: time.Millisecond},
		&membership.Config{QuarantineAfter: 1, EvictAfter: -1})

	suite := frontendsim.SuiteRequest{Benchmarks: frontendsim.Benchmarks()}
	slice := homedOn(t, sched, eng, c.URL)
	if len(slice) == 0 {
		t.Fatal("no benchmark homed on C")
	}

	// One full suite: C computes its slice into its durable store.
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := c.Runs(); got != int64(len(slice)) {
		t.Fatalf("C ran its engine %d times for a %d-key slice", got, len(slice))
	}

	killUnderLoad(t, sched, suite, c, a.URL, b.URL)

	// C restarts over the same directory and rejoins the ring.
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitReady(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := members.Join(c.URL); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WaitRing(sched, time.Second, a.URL, b.URL, c.URL); err != nil {
		t.Fatal(err)
	}

	for _, bench := range slice {
		body, src := postDirect(t, c.URL, bench)
		if src != "HIT" {
			t.Errorf("benchmark %s on restarted C: X-Cache %q, want HIT", bench, src)
		}
		if !bytes.Equal(body, serialBytes(t, eng, bench)) {
			t.Errorf("benchmark %s: restarted C's bytes differ from a serial Engine.Run", bench)
		}
	}
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{Benchmarks: slice}); err != nil {
		t.Fatal(err)
	}
	if got := c.Runs(); got != 0 {
		t.Errorf("restarted C recomputed %d times; its durable store must serve its slice", got)
	}
}

// TestChaosReinstatedMemberRecomputesSlice checks that reinstating a
// quarantined backend hands its ring slice back to it: quarantine B,
// compute B-homed keys on the survivor A, then reinstate B.  With no
// scheduler cache, the next suite over those keys is dispatched to B
// again, not to A.  Replicas never copy results, so B computes each key
// once (one engine run per key) and stores bytes identical to A's; a
// further suite is served from B's store with no engine run.
func TestChaosReinstatedMemberRecomputesSlice(t *testing.T) {
	f := newFleet(t, fleet.Config{Replicas: 2})
	a, b := f.Replicas[0], f.Replicas[1]
	eng := f.Engine
	sched, members := newScheduler(t, f, scheduler.Config{},
		&membership.Config{QuarantineAfter: 1, EvictAfter: -1})

	// Which benchmarks home on B under the full two-member ring?
	onB := homedOn(t, sched, eng, b.URL)
	if len(onB) == 0 {
		t.Fatal("no benchmark homed on B")
	}
	suite := frontendsim.SuiteRequest{Benchmarks: onB}

	// One failed dispatch quarantines B; the scheduler now routes its
	// slice to A, which computes and stores it.
	members.ReportDispatch(b.URL, fmt.Errorf("injected dispatch failure"))
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := b.Runs(); got != 0 {
		t.Fatalf("quarantined B ran its engine %d times", got)
	}
	if got := a.Runs(); got != int64(len(onB)) {
		t.Fatalf("survivor A ran its engine %d times for B's %d-key slice", got, len(onB))
	}

	// B is reinstated: its slice routes back to it and it recomputes.
	if err := members.Join(b.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := b.Runs(); got != int64(len(onB)) {
		t.Fatalf("reinstated B ran its engine %d times for its %d-key slice, want one run per key", got, len(onB))
	}
	if got := a.Runs(); got != int64(len(onB)) {
		t.Errorf("A ran its engine %d times after B's reinstatement, want no new runs", got-int64(len(onB)))
	}
	for _, bench := range onB {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		want, okA, _ := resultstore.Peek(context.Background(), a.Store(), key)
		got, okB, _ := resultstore.Peek(context.Background(), b.Store(), key)
		if !okA || !okB {
			t.Fatalf("benchmark %s: stored on A %v, on B %v; want both", bench, okA, okB)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("benchmark %s: B's recomputed bytes differ from the survivor's", bench)
		}
	}

	// B now serves its slice from its store.
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := b.Runs(); got != int64(len(onB)) {
		t.Errorf("B recomputed %d times on a repeat suite; its store must serve", got-int64(len(onB)))
	}
}
