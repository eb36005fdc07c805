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

func TestHintQueueBoundsAndDedup(t *testing.T) {
	h := newHintQueue(3, []string{"http://a", "http://b"}, nil)
	h.setMember("http://b", true)

	// Enqueue against a member that is not quarantined is a no-op.
	h.enqueue("http://a", "k0", []byte("v0"))
	if got := h.backlog("http://a"); got != 0 {
		t.Fatalf("backlog for active member = %d, want 0", got)
	}

	for i := 1; i <= 3; i++ {
		h.enqueue("http://b", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if got := h.backlog("http://b"); got != 3 {
		t.Fatalf("backlog = %d, want 3", got)
	}

	// A recomputed key overwrites its pending body in place.
	h.enqueue("http://b", "k2", []byte("v2-new"))
	if got := h.backlog("http://b"); got != 3 {
		t.Fatalf("backlog after dedup = %d, want 3", got)
	}

	// A fourth distinct key drops the oldest pending write.
	h.enqueue("http://b", "k4", []byte("v4"))
	if got := h.backlog("http://b"); got != 3 {
		t.Fatalf("backlog after overflow = %d, want the limit 3", got)
	}
	if got := h.dropped.Load(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}

	entries := h.take("http://b")
	want := []hintEntry{
		{key: "k2", body: []byte("v2-new")},
		{key: "k3", body: []byte("v3")},
		{key: "k4", body: []byte("v4")},
	}
	if len(entries) != len(want) {
		t.Fatalf("take = %d entries (%v), want %d", len(entries), entries, len(want))
	}
	for i := range want {
		if entries[i].key != want[i].key || string(entries[i].body) != string(want[i].body) {
			t.Errorf("entry %d = {%s %s}, want {%s %s}",
				i, entries[i].key, entries[i].body, want[i].key, want[i].body)
		}
	}
	if got := h.queued.Load(); got != 4 {
		t.Errorf("queued = %d, want 4 distinct keys", got)
	}
}

func TestHintQueueRemoveMemberDropsBacklog(t *testing.T) {
	h := newHintQueue(8, []string{"http://a", "http://b"}, nil)
	h.setMember("http://b", true)
	h.enqueue("http://b", "k1", []byte("v1"))
	h.enqueue("http://b", "k2", []byte("v2"))
	h.removeMember("http://b")
	if got := h.dropped.Load(); got != 2 {
		t.Fatalf("dropped = %d, want the 2 abandoned hints", got)
	}
	if got := h.backlog("http://b"); got != 0 {
		t.Fatalf("backlog after removal = %d", got)
	}
}

// hintBackend is a simd replica whose store and engine-run count the
// test can inspect directly.
type hintBackend struct {
	api   *simd.Server
	store resultstore.Store
	runs  *atomic.Int64
	url   string
}

func newHintBackend(t *testing.T) *hintBackend {
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
	return &hintBackend{api: api, store: store, runs: &runs, url: srv.URL}
}

// TestHintedHandoffReplaysOnReinstatement is the hinted-handoff
// acceptance test: quarantine backend B, compute B-homed keys on the
// survivor, reinstate B, and B must serve those keys from its replayed
// store — X-Cache: HIT, byte-identical to the survivor's computation,
// zero engine runs on B.
func TestHintedHandoffReplaysOnReinstatement(t *testing.T) {
	a, b := newHintBackend(t), newHintBackend(t)
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends:  []string{a.url, b.url},
		HintLimit: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	members, err := membership.New(membership.Config{
		QuarantineAfter: 1,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
		OnTransition:    sched.OnMembershipTransition(),
	}, []string{a.url, b.url})
	if err != nil {
		t.Fatal(err)
	}
	defer members.Close()

	// Which benchmarks home on B under the full two-member ring?
	eng := frontendsim.New(testOpts()...)
	fullRing, err := NewRing([]string{a.url, b.url})
	if err != nil {
		t.Fatal(err)
	}
	var onB []string
	keyOf := map[string]string{}
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if fullRing.Node(key) == b.url {
			onB = append(onB, bench)
			keyOf[bench] = key
		}
	}
	if len(onB) == 0 {
		t.Fatal("no benchmark homed on B")
	}

	// One failed dispatch quarantines B; the scheduler now routes its
	// slice to A, and every B-homed result accrues a hint.
	members.ReportDispatch(b.url, fmt.Errorf("injected dispatch failure"))
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{Benchmarks: onB}); err != nil {
		t.Fatal(err)
	}
	if got := sched.HintBacklog(b.url); got != len(onB) {
		t.Fatalf("backlog = %d, want one hint per B-homed benchmark (%d)", got, len(onB))
	}
	if st := sched.Stats(); st.HintsQueued != uint64(len(onB)) {
		t.Fatalf("HintsQueued = %d, want %d", st.HintsQueued, len(onB))
	}
	if got := b.runs.Load(); got != 0 {
		t.Fatalf("quarantined B ran its engine %d times", got)
	}

	// Reinstating B replays the backlog asynchronously.
	if err := members.Join(b.url); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sched.Stats().HintsReplayed < uint64(len(onB)) {
		if time.Now().After(deadline) {
			t.Fatalf("replayed %d of %d before deadline (dropped %d)",
				sched.Stats().HintsReplayed, len(onB), sched.Stats().HintsDropped)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := sched.HintBacklog(b.url); got != 0 {
		t.Fatalf("backlog after replay = %d", got)
	}

	// B now serves its slice byte-identical from the replayed store.
	for _, bench := range onB {
		want, ok, err := resultstore.Peek(context.Background(), a.store, keyOf[bench])
		if err != nil || !ok {
			t.Fatalf("survivor's store missing %s", bench)
		}
		req, _ := http.NewRequest(http.MethodPost, b.url+"/v1/simulations",
			strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
		resp, err := http.DefaultClient.Do(req)
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
			t.Errorf("benchmark %s: replayed body differs from the survivor's computation", bench)
		}
	}
	if got := b.runs.Load(); got != 0 {
		t.Errorf("reinstated B recomputed %d times; the replayed hints must serve instead", got)
	}
}

// TestHintsDroppedOnEviction pins the abandonment path: hints buffered
// for a member that is evicted are dropped, not leaked.
func TestHintsDroppedOnEviction(t *testing.T) {
	a, b := newHintBackend(t), newHintBackend(t)
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends:  []string{a.url, b.url},
		HintLimit: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	transition := sched.OnMembershipTransition()
	transition(b.url, membership.TransitionQuarantine)

	eng := frontendsim.New(testOpts()...)
	fullRing, err := NewRing([]string{a.url, b.url})
	if err != nil {
		t.Fatal(err)
	}
	var onB []string
	for _, bench := range frontendsim.Benchmarks() {
		key, err := eng.RequestKey(frontendsim.Request{Benchmark: bench})
		if err != nil {
			t.Fatal(err)
		}
		if fullRing.Node(key) == b.url {
			onB = append(onB, bench)
		}
	}
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{Benchmarks: onB[:1]}); err != nil {
		t.Fatal(err)
	}
	if got := sched.HintBacklog(b.url); got != 1 {
		t.Fatalf("backlog = %d, want 1", got)
	}
	transition(b.url, membership.TransitionEvict)
	if got := sched.HintBacklog(b.url); got != 0 {
		t.Fatalf("backlog after eviction = %d", got)
	}
	if st := sched.Stats(); st.HintsDropped != 1 {
		t.Fatalf("HintsDropped = %d, want 1", st.HintsDropped)
	}
}

// TestHintsDisabledByDefault: without HintLimit the dispatch path never
// buffers and the stats stay zero.
func TestHintsDisabledByDefault(t *testing.T) {
	backends := newBackends(t, 2)
	sched := newScheduler(t, urls(backends))
	sched.OnMembershipTransition()(backends[1].URL(), membership.TransitionQuarantine)
	if _, err := sched.RunSuite(context.Background(), frontendsim.SuiteRequest{
		Benchmarks: frontendsim.Benchmarks()[:2],
	}); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.HintsQueued != 0 || st.HintsReplayed != 0 || st.HintsDropped != 0 {
		t.Fatalf("hint stats moved with hints disabled: %+v", st)
	}
	if sched.HintBacklog(backends[1].URL()) != 0 {
		t.Fatal("backlog nonzero with hints disabled")
	}
}
