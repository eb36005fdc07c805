package membership

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/obs"
)

// healthStub is a backend whose /healthz can be flipped between healthy,
// failing, and hanging.
type healthStub struct {
	srv   *httptest.Server
	fail  atomic.Bool
	block chan struct{} // when non-nil via setBlock, handlers wait on it
	mu    sync.Mutex
}

func newHealthStub(t *testing.T) *healthStub {
	t.Helper()
	s := &healthStub{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		block := s.block
		s.mu.Unlock()
		if block != nil {
			select {
			case <-block:
			case <-r.Context().Done():
				return
			}
		}
		if s.fail.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *healthStub) setBlock(ch chan struct{}) {
	s.mu.Lock()
	s.block = ch
	s.mu.Unlock()
}

// testConfig probes fast and quarantines after 2 failures.
func testConfig() Config {
	return Config{
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    200 * time.Millisecond,
		QuarantineAfter: 2,
		EvictAfter:      -1, // tests drive eviction explicitly
	}
}

func TestQuarantineAndReinstate(t *testing.T) {
	stub := newHealthStub(t)
	// A healthy peer keeps the stub's quarantine a routable-set change
	// (quarantining the only member leaves the set as it is).
	peer := newHealthStub(t).srv.URL
	var epochs []uint64
	var actives [][]string
	var mu sync.Mutex
	cfg := testConfig()
	cfg.OnChange = func(epoch uint64, active []string) {
		mu.Lock()
		epochs = append(epochs, epoch)
		actives = append(actives, active)
		mu.Unlock()
	}
	reg, err := New(cfg, []string{stub.srv.URL, peer})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	reg.ProbeNow(ctx)
	if got := reg.Active(); len(got) != 2 {
		t.Fatalf("healthy members not active: %v", got)
	}

	// Two consecutive failures quarantine; one is not enough.
	stub.fail.Store(true)
	reg.ProbeNow(ctx)
	if got := reg.Active(); len(got) != 2 {
		t.Fatalf("member quarantined after 1 failure (threshold 2): %v", got)
	}
	reg.ProbeNow(ctx)
	if got := reg.Active(); len(got) != 1 || got[0] != peer {
		t.Fatalf("active after %d failures = %v, want only the peer", 2, got)
	}
	snap := reg.Snapshot()
	i := slices.IndexFunc(snap, func(info Info) bool { return info.URL == stub.srv.URL })
	if len(snap) != 2 || snap[i].State != StateQuarantined || snap[i].ConsecutiveFailures != 2 {
		t.Fatalf("snapshot = %+v, want the stub quarantined with 2 fails", snap)
	}
	if snap[i].LastError == "" || snap[i].LastProbe.IsZero() {
		t.Errorf("snapshot missing probe detail: %+v", snap[i])
	}

	// One successful recovery probe reinstates.
	stub.fail.Store(false)
	reg.ProbeNow(ctx)
	if got := reg.Active(); len(got) != 2 {
		t.Fatalf("recovered member not reinstated: %v", got)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 2 {
		t.Fatalf("epochs = %v, want exactly 2 changes (quarantine, reinstate)", epochs)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			t.Errorf("epochs not monotonic: %v", epochs)
		}
	}
	if len(actives[0]) != 1 || len(actives[1]) != 2 {
		t.Errorf("active sets = %v, want [peer] then [peer url]", actives)
	}
	st := reg.Stats()
	if st.Quarantines != 1 || st.Reinstatements != 1 {
		t.Errorf("stats = %+v, want 1 quarantine + 1 reinstatement", st)
	}
}

func TestEvictionAfterDeadline(t *testing.T) {
	stub := newHealthStub(t)
	cfg := testConfig()
	cfg.EvictAfter = time.Hour
	reg, err := New(cfg, []string{stub.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	stub.fail.Store(true)
	reg.ProbeNow(ctx)
	reg.ProbeNow(ctx)
	if snap := reg.Snapshot(); len(snap) != 1 || snap[0].State != StateQuarantined {
		t.Fatalf("snapshot = %+v, want one quarantined member", snap)
	}

	// Not evicted before the deadline…
	reg.ProbeNow(ctx)
	if snap := reg.Snapshot(); len(snap) != 1 {
		t.Fatalf("member evicted before deadline: %+v", snap)
	}
	// …evicted once the (test-warped) clock passes it.
	reg.mu.Lock()
	reg.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	reg.mu.Unlock()
	reg.ProbeNow(ctx)
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Fatalf("member not evicted after deadline: %+v", snap)
	}
	if st := reg.Stats(); st.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 eviction", st)
	}

	// Rejoin after eviction: the member is back, active.
	if err := reg.Join(stub.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := reg.Active(); len(got) != 1 {
		t.Fatalf("rejoined member not active: %v", got)
	}
}

func TestJoinLeave(t *testing.T) {
	a, b := newHealthStub(t), newHealthStub(t)
	var changes atomic.Int64
	cfg := testConfig()
	cfg.OnChange = func(uint64, []string) { changes.Add(1) }
	reg, err := New(cfg, []string{a.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	if err := reg.Join(b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := reg.Active(); len(got) != 2 {
		t.Fatalf("active = %v, want 2", got)
	}
	// Idempotent join: no epoch bump.
	before := reg.Epoch()
	if err := reg.Join(b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch() != before {
		t.Error("idempotent join bumped the epoch")
	}

	if err := reg.Leave(b.srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := reg.Active(); len(got) != 1 || got[0] != a.srv.URL {
		t.Fatalf("active = %v, want just %s", got, a.srv.URL)
	}
	if err := reg.Leave(b.srv.URL); err == nil {
		t.Error("leaving an unknown member did not error")
	}
	if changes.Load() != 2 {
		t.Errorf("OnChange fired %d times, want 2 (join, leave)", changes.Load())
	}
}

// TestProbeRacesConcurrentLeave starts a probe that blocks inside the
// backend, removes the member mid-probe, then unblocks — the stale
// result must be dropped: the member stays gone and no epoch bump or
// state transition happens on its behalf.
func TestProbeRacesConcurrentLeave(t *testing.T) {
	stub := newHealthStub(t)
	other := newHealthStub(t)
	cfg := testConfig()
	reg, err := New(cfg, []string{stub.srv.URL, other.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	stub.setBlock(gate)
	done := make(chan struct{})
	go func() {
		reg.ProbeNow(context.Background())
		close(done)
	}()

	// Wait until the probe is inside the handler, then remove the member.
	deadline := time.After(2 * time.Second)
	for {
		if reg.mu.TryLock() {
			m := reg.members[stub.srv.URL]
			probing := m != nil && m.probing
			reg.mu.Unlock()
			if probing {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatal("probe never started")
		case <-time.After(time.Millisecond):
		}
	}
	epochBefore := reg.Epoch()
	if err := reg.Leave(stub.srv.URL); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-done

	for _, info := range reg.Snapshot() {
		if info.URL == stub.srv.URL {
			t.Error("left member re-appeared from a stale probe result")
		}
	}
	// Leave bumped once; the stale probe must not bump again.
	if got := reg.Epoch(); got != epochBefore+1 {
		t.Errorf("epoch = %d, want %d (one bump from Leave only)", got, epochBefore+1)
	}
	if got := reg.Active(); len(got) != 1 || got[0] != other.srv.URL {
		t.Errorf("active = %v, want just the surviving member", got)
	}
}

// TestProbeRacesLeaveThenRejoin covers the nastier incarnation race: the
// member leaves and rejoins while its old probe is still in flight.  The
// stale result belongs to the dead incarnation and must not touch the
// fresh one.
func TestProbeRacesLeaveThenRejoin(t *testing.T) {
	stub := newHealthStub(t)
	cfg := testConfig()
	cfg.QuarantineAfter = 1
	reg, err := New(cfg, []string{stub.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	stub.fail.Store(true) // the in-flight probe will come back a failure
	gate := make(chan struct{})
	stub.setBlock(gate)
	done := make(chan struct{})
	go func() {
		reg.ProbeNow(context.Background())
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for {
		reg.mu.Lock()
		m := reg.members[stub.srv.URL]
		probing := m != nil && m.probing
		reg.mu.Unlock()
		if probing {
			break
		}
		select {
		case <-deadline:
			t.Fatal("probe never started")
		case <-time.After(time.Millisecond):
		}
	}
	if err := reg.Leave(stub.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := reg.Join(stub.srv.URL); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-done

	// The stale failure (threshold 1!) must not have quarantined the new
	// incarnation.
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].State != StateActive || snap[0].ConsecutiveFailures != 0 {
		t.Fatalf("snapshot = %+v, want a fresh active member untouched by the stale probe", snap)
	}
}

// TestConcurrentProbesJoinsLeaves is the -race exercise: the probe loop
// runs hot while members join and leave concurrently.
func TestConcurrentProbesJoinsLeaves(t *testing.T) {
	stubs := make([]*healthStub, 4)
	for i := range stubs {
		stubs[i] = newHealthStub(t)
	}
	cfg := testConfig()
	cfg.ProbeInterval = time.Millisecond
	cfg.Metrics = obs.NewRegistry()
	var epochMu sync.Mutex
	last := uint64(0)
	cfg.OnChange = func(epoch uint64, _ []string) {
		epochMu.Lock()
		if epoch != last+1 {
			t.Errorf("epoch %d delivered after %d", epoch, last)
		}
		last = epoch
		epochMu.Unlock()
	}
	reg, err := New(cfg, []string{stubs[0].srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	reg.Start()
	defer reg.Close()

	var wg sync.WaitGroup
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(s *healthStub) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				reg.Join(s.srv.URL)
				s.fail.Store(j%2 == 0)
				time.Sleep(time.Millisecond)
				reg.Leave(s.srv.URL)
			}
		}(stubs[i])
	}
	wg.Wait()
	// The seed member is still there and the registry still answers.
	if got := reg.Active(); len(got) != 1 || got[0] != stubs[0].srv.URL {
		t.Errorf("active = %v, want just the seed", got)
	}
	if !strings.Contains(cfg.Metrics.Render(), "ring_epoch") {
		t.Error("metrics registry missing ring_epoch")
	}
}

func TestAnnounce(t *testing.T) {
	var gotBody atomic.Value
	sched := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/ring/members" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		b := make([]byte, 256)
		n, _ := r.Body.Read(b)
		gotBody.Store(string(b[:n]))
		w.WriteHeader(http.StatusOK)
	}))
	defer sched.Close()

	if err := Announce(context.Background(), nil, sched.URL, "http://sim-1:8723"); err != nil {
		t.Fatal(err)
	}
	if got, _ := gotBody.Load().(string); got != `{"url":"http://sim-1:8723"}` {
		t.Errorf("announce body = %q", got)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer bad.Close()
	if err := Announce(context.Background(), nil, bad.URL, "http://sim-1:8723"); err == nil {
		t.Error("announce to refusing scheduler did not error")
	}
}

// TestAnnounceBodyIsJSON pins the announce body to JSON quoting: a
// scheduler that decodes it strictly reads back the advertised URL even
// when it holds a control byte, a quote or a backslash, and invalid
// UTF-8 arrives as U+FFFD instead of as a body no JSON decoder accepts
// (which left simd re-announcing every second).
func TestAnnounceBodyIsJSON(t *testing.T) {
	var got atomic.Value
	sched := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			URL string `json:"url"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil || dec.More() {
			http.Error(w, fmt.Sprint("decode: ", err), http.StatusBadRequest)
			return
		}
		got.Store(body.URL)
		w.WriteHeader(http.StatusOK)
	}))
	defer sched.Close()

	for _, self := range []string{
		"http://sim-1:8723",
		"http://sim-1:8723/\x01\x7f",
		`http://sim-1:8723/"q"\b`,
		"http://sim-1:8723/\xff",
	} {
		if err := Announce(context.Background(), nil, sched.URL, self); err != nil {
			t.Errorf("announce %q: %v", self, err)
			continue
		}
		if want := strings.ToValidUTF8(self, "\uFFFD"); got.Load() != want {
			t.Errorf("announce %q: scheduler read %q, want %q", self, got.Load(), want)
		}
	}
}

func TestDepart(t *testing.T) {
	var gotURL atomic.Value
	sched := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete || r.URL.Path != "/v1/ring/members" {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		gotURL.Store(r.URL.Query().Get("url"))
		w.WriteHeader(http.StatusOK)
	}))
	defer sched.Close()

	if err := Depart(context.Background(), nil, sched.URL, "http://sim-1:8723"); err != nil {
		t.Fatal(err)
	}
	if got, _ := gotURL.Load().(string); got != "http://sim-1:8723" {
		t.Errorf("depart url = %q", got)
	}

	// An already-evicted member (404) is a clean depart, not an error.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer gone.Close()
	if err := Depart(context.Background(), nil, gone.URL, "http://sim-1:8723"); err != nil {
		t.Errorf("depart of already-evicted member = %v, want nil", err)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if err := Depart(context.Background(), nil, bad.URL, "http://sim-1:8723"); err == nil {
		t.Error("depart from failing scheduler did not error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, err := New(Config{}, []string{""}); err == nil {
		t.Error("empty seed URL accepted")
	}
	reg, err := New(Config{}, []string{"http://a", "http://a", "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Active(); len(got) != 2 {
		t.Errorf("duplicate seeds not collapsed: %v", got)
	}
	if fmt.Sprint(reg.Epoch()) != "0" {
		t.Errorf("fresh registry epoch = %d, want 0", reg.Epoch())
	}
}

// changeLog records OnChange deliveries in order.
type changeLog struct {
	mu      sync.Mutex
	changes []string
}

func (l *changeLog) record(epoch uint64, active []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.changes = append(l.changes, fmt.Sprintf("%d:%s", epoch, strings.Join(active, ",")))
}

func (l *changeLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.changes...)
}

// lifecycle is the member-lifecycle part of Stats (probe and passive
// report counts left out).
type lifecycle struct{ joins, quarantines, reinstates, leaves, evictions uint64 }

func lifecycleOf(st Stats) lifecycle {
	return lifecycle{st.Joins, st.Quarantines, st.Reinstatements, st.Leaves, st.Evictions}
}

// checkLifecycle asserts reg's lifecycle counters and that log holds
// exactly the OnChange deliveries want, in epoch order.
func checkLifecycle(t *testing.T, step string, reg *Registry, log *changeLog, want lifecycle, changes ...string) {
	t.Helper()
	if got := lifecycleOf(reg.Stats()); got != want {
		t.Errorf("%s: lifecycle counters = %+v, want %+v", step, got, want)
	}
	if got := log.snapshot(); strings.Join(got, " ") != strings.Join(changes, " ") {
		t.Errorf("%s: OnChange deliveries = %v, want %v", step, got, changes)
	}
}

// TestTransitionLifecycle drives one member through every transition —
// join, quarantine, reinstate, leave, rejoin, quarantine, evict — and
// pins each step's lifecycle counters and OnChange delivery: every step
// but eviction bumps the epoch by one and delivers the new active set,
// and eviction (of a member already out of the routable set) delivers
// nothing.
func TestTransitionLifecycle(t *testing.T) {
	stub := newHealthStub(t)
	url := stub.srv.URL
	seed := newHealthStub(t).srv.URL
	pair := []string{seed, url}
	sort.Strings(pair)
	both := strings.Join(pair, ",")

	var log changeLog
	cfg := testConfig()
	cfg.EvictAfter = time.Hour
	cfg.OnChange = log.record
	reg, err := New(cfg, []string{seed})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	if err := reg.Join(url); err != nil { // brand-new member
		t.Fatal(err)
	}
	checkLifecycle(t, "join", reg, &log, lifecycle{joins: 2}, "1:"+both)
	stub.fail.Store(true)
	reg.ProbeNow(ctx)
	reg.ProbeNow(ctx) // second failure quarantines
	checkLifecycle(t, "quarantine", reg, &log, lifecycle{joins: 2, quarantines: 1},
		"1:"+both, "2:"+seed)
	if err := reg.Join(url); err != nil { // join while quarantined = reinstate
		t.Fatal(err)
	}
	checkLifecycle(t, "reinstate", reg, &log, lifecycle{joins: 2, quarantines: 1, reinstates: 1},
		"1:"+both, "2:"+seed, "3:"+both)
	if err := reg.Leave(url); err != nil {
		t.Fatal(err)
	}
	if err := reg.Join(url); err != nil { // back again
		t.Fatal(err)
	}
	checkLifecycle(t, "leave and rejoin", reg, &log,
		lifecycle{joins: 3, quarantines: 1, reinstates: 1, leaves: 1},
		"1:"+both, "2:"+seed, "3:"+both, "4:"+seed, "5:"+both)
	reg.ProbeNow(ctx)
	reg.ProbeNow(ctx)
	reg.mu.Lock()
	reg.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	reg.mu.Unlock()
	reg.ProbeNow(ctx) // past the deadline: evict
	checkLifecycle(t, "quarantine and evict", reg, &log,
		lifecycle{joins: 3, quarantines: 2, reinstates: 1, leaves: 1, evictions: 1},
		"1:"+both, "2:"+seed, "3:"+both, "4:"+seed, "5:"+both, "6:"+seed)
	if got := reg.Epoch(); got != 6 {
		t.Errorf("epoch = %d, want 6", got)
	}
	if snap := reg.Snapshot(); len(snap) != 1 || snap[0].URL != seed {
		t.Errorf("members after eviction = %+v, want only the seed", snap)
	}
}

// TestTransitionReinstateViaProbe pins that a probe-driven recovery
// (not just an explicit Join) reinstates the member: it counts a
// reinstatement and delivers the routable set with it.
func TestTransitionReinstateViaProbe(t *testing.T) {
	stub := newHealthStub(t)
	url := stub.srv.URL
	peer := newHealthStub(t).srv.URL
	pair := []string{peer, url}
	sort.Strings(pair)
	var log changeLog
	cfg := testConfig()
	cfg.OnChange = log.record
	reg, err := New(cfg, pair)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()

	stub.fail.Store(true)
	reg.ProbeNow(ctx)
	reg.ProbeNow(ctx)
	stub.fail.Store(false)
	reg.ProbeNow(ctx)
	checkLifecycle(t, "probe recovery", reg, &log,
		lifecycle{joins: 2, quarantines: 1, reinstates: 1}, "1:"+peer, "2:"+strings.Join(pair, ","))
}

// TestLifecycleQuarantineViaDispatch pins that live dispatch verdicts
// (ReportDispatch) quarantine a member like probes do, with no probe
// round.
func TestLifecycleQuarantineViaDispatch(t *testing.T) {
	stub := newHealthStub(t)
	url := stub.srv.URL
	const peer = "http://peer.invalid" // never probed
	var log changeLog
	cfg := testConfig()
	cfg.OnChange = log.record
	reg, err := New(cfg, []string{url, peer})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	reg.ReportDispatch(url, fmt.Errorf("boom"))
	reg.ReportDispatch(url, fmt.Errorf("boom"))
	checkLifecycle(t, "dispatch failures", reg, &log, lifecycle{joins: 2, quarantines: 1}, "1:"+peer)
	// Success does not reinstate through the dispatch path (that is the
	// probe's job), so nothing further changes.
	reg.ReportDispatch(url, nil)
	checkLifecycle(t, "dispatch success", reg, &log, lifecycle{joins: 2, quarantines: 1}, "1:"+peer)
	if st := reg.Stats(); st.Probes != 0 {
		t.Errorf("probes = %d, want none", st.Probes)
	}
}
