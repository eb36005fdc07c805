package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
)

// storeBackend is a simd replica whose store and engine-run count the
// test can inspect directly.
type storeBackend struct {
	store resultstore.Store
	runs  *atomic.Int64
	url   string
}

func newStoreBackend(t *testing.T) *storeBackend {
	t.Helper()
	store := resultstore.NewMemory(64)
	t.Cleanup(func() { store.Close() })
	var runs atomic.Int64
	eng := frontendsim.New(append(testOpts(),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				runs.Add(1)
			}
		})))...)
	srv := httptest.NewServer(simd.NewServerWithStore(eng, store))
	t.Cleanup(srv.Close)
	return &storeBackend{store: store, runs: &runs, url: srv.URL}
}

// TestHintedHandoffReplaysOnReinstatement checks that reinstating a
// quarantined backend hands its ring slice back to it: quarantine B,
// compute B-homed keys on the survivor A, then reinstate B.  With no
// scheduler cache, the next suite over those keys is dispatched to B
// again, not to A.  Replicas never copy results, so B computes each key
// once (one engine run per key) and stores bytes identical to A's; a
// further suite is served from B's store with no engine run.
func TestHintedHandoffReplaysOnReinstatement(t *testing.T) {
	a, b := newStoreBackend(t), newStoreBackend(t)
	sched, err := New(frontendsim.New(testOpts()...), Config{Backends: []string{a.url, b.url}})
	if err != nil {
		t.Fatal(err)
	}
	members, err := membership.New(membership.Config{
		QuarantineAfter: 1,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
	}, []string{a.url, b.url})
	if err != nil {
		t.Fatal(err)
	}
	defer members.Close()

	// Which benchmarks home on B under the full two-member ring?
	onB := homedOn(t, sched, b.url)
	if len(onB) == 0 {
		t.Fatal("no benchmark homed on B")
	}
	suite := frontendsim.SuiteRequest{Benchmarks: onB}

	// One failed dispatch quarantines B; the scheduler now routes its
	// slice to A, which computes and stores it.
	members.ReportDispatch(b.url, fmt.Errorf("injected dispatch failure"))
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != 0 {
		t.Fatalf("quarantined B ran its engine %d times", got)
	}
	if got := a.runs.Load(); got != int64(len(onB)) {
		t.Fatalf("survivor A ran its engine %d times for B's %d-key slice", got, len(onB))
	}

	// B is reinstated: its slice routes back to it and it recomputes.
	if err := members.Join(b.url); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunSuite(context.Background(), suite); err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != int64(len(onB)) {
		t.Fatalf("reinstated B ran its engine %d times for its %d-key slice, want one run per key", got, len(onB))
	}
	if got := a.runs.Load(); got != int64(len(onB)) {
		t.Errorf("A ran its engine %d times after B's reinstatement, want no new runs", got-int64(len(onB)))
	}
	for _, bench := range onB {
		key, err := sched.eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		want, okA, _ := resultstore.Peek(context.Background(), a.store, key)
		got, okB, _ := resultstore.Peek(context.Background(), b.store, key)
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
	if got := b.runs.Load(); got != int64(len(onB)) {
		t.Errorf("B recomputed %d times on a repeat suite; its store must serve", got-int64(len(onB)))
	}
}
