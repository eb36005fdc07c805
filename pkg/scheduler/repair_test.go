package scheduler

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

	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
)

// storeBackend is a simd replica whose store and engine-run count the
// test can inspect directly.
type storeBackend struct {
	api   *simd.Server
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
	api := simd.NewServerWithStore(eng, store)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return &storeBackend{api: api, store: store, runs: &runs, url: srv.URL}
}

// TestHintedHandoffReplaysOnReinstatement is the repair acceptance test
// over the one repair path, anti-entropy: quarantine backend B, compute
// B-homed keys on the survivor A, reinstate B and let it converge
// against A.  B must then serve those keys from its store — X-Cache:
// HIT, byte-identical to A's stored body, zero engine runs on B.
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
	ring := httptest.NewServer(NewServer(sched, WithMembership(members)))
	defer ring.Close()

	// Which benchmarks home on B under the full two-member ring?
	var onB []string
	keyOf := map[string]string{}
	for _, bench := range homedOn(t, sched, b.url) {
		key, err := sched.eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		onB = append(onB, bench)
		keyOf[bench] = key
	}
	if len(onB) == 0 {
		t.Fatal("no benchmark homed on B")
	}

	// One failed dispatch quarantines B; the scheduler now routes its
	// slice to A, which computes and stores it.
	members.ReportDispatch(b.url, fmt.Errorf("injected dispatch failure"))
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{Benchmarks: onB}); err != nil {
		t.Fatal(err)
	}
	if got := b.runs.Load(); got != 0 {
		t.Fatalf("quarantined B ran its engine %d times", got)
	}

	// B is reinstated and converges its ring slice from A before it
	// serves.
	if err := members.Join(b.url); err != nil {
		t.Fatal(err)
	}
	ae, err := b.api.NewAntiEntropy(simd.AntiEntropyConfig{
		SelfURL: b.url,
		Peers:   []string{a.url},
		RingURL: ring.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pulled, err := ae.Converge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pulled != len(onB) {
		t.Fatalf("converge pulled %d entries, want one per B-homed benchmark (%d)", pulled, len(onB))
	}

	// B now serves its slice byte-identical from the converged store.
	for _, bench := range onB {
		want, ok, err := resultstore.Peek(context.Background(), a.store, keyOf[bench])
		if err != nil || !ok {
			t.Fatalf("survivor's store missing %s", bench)
		}
		resp, err := http.Post(b.url+"/v1/simulations", "application/json",
			strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("benchmark %s on reinstated B: status %d X-Cache %q",
				bench, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if string(body) != string(want) {
			t.Errorf("benchmark %s: converged body differs from the survivor's computation", bench)
		}
	}
	if got := b.runs.Load(); got != 0 {
		t.Errorf("reinstated B recomputed %d times; the converged store must serve instead", got)
	}
}
