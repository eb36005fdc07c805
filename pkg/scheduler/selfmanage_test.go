package scheduler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
)

// fleetNode is a canned backend for the self-managing-ring tests: it
// serves /healthz and POST /v1/simulations, with switches to take the
// whole node down (kill), fail only the health check, or gate
// simulation responses (for in-flight tests).
type fleetNode struct {
	srv       *httptest.Server
	down      atomic.Bool // everything fails (a killed process)
	unhealthy atomic.Bool // /healthz fails, simulations still served
	simHits   atomic.Int64
	simGate   atomic.Pointer[chan struct{}] // when set, simulations block on it
	started   chan struct{}                 // signalled when a simulation begins
}

func newFleetNode(t *testing.T) *fleetNode {
	t.Helper()
	n := &fleetNode{started: make(chan struct{}, 8)}
	body, _ := json.Marshal(&frontendsim.Result{Benchmark: "gzip"})
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.down.Load() {
			http.Error(w, "node is down", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/healthz" {
			if n.unhealthy.Load() {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
			return
		}
		n.simHits.Add(1)
		select {
		case n.started <- struct{}{}:
		default:
		}
		if gate := n.simGate.Load(); gate != nil {
			<-*gate
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func fleetURLs(nodes []*fleetNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.srv.URL
	}
	return out
}

// TestSetBackendsRedirectsTraffic pins the atomic ring swap: a request
// homed on node A lands on A, and after SetBackends removes A the same
// request reshards onto the remaining node.
func TestSetBackendsRedirectsTraffic(t *testing.T) {
	a, b := newFleetNode(t), newFleetNode(t)
	sched := newScheduler(t, []string{a.srv.URL, b.srv.URL})
	req, _ := homedRequest(t, sched, a.srv.URL)

	if _, err := sched.Dispatch(t.Context(), req); err != nil {
		t.Fatal(err)
	}
	if a.simHits.Load() != 1 || b.simHits.Load() != 0 {
		t.Fatalf("before swap: hits a=%d b=%d, want 1/0", a.simHits.Load(), b.simHits.Load())
	}

	if err := sched.SetBackends([]string{b.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Dispatch(t.Context(), req); err != nil {
		t.Fatal(err)
	}
	if a.simHits.Load() != 1 || b.simHits.Load() != 1 {
		t.Fatalf("after swap: hits a=%d b=%d, want 1/1", a.simHits.Load(), b.simHits.Load())
	}
	if st := sched.Stats(); st.RingSwaps != 1 || st.Retried != 0 {
		t.Errorf("stats = %+v, want 1 ring swap and 0 retries", st)
	}

	if err := sched.SetBackends(nil); err == nil {
		t.Error("SetBackends(nil) = nil error, want rejection (last ring must survive)")
	}
	if got := sched.Ring().Nodes(); len(got) != 1 || got[0] != b.srv.URL {
		t.Errorf("ring after rejected empty swap = %v, want [%s]", got, b.srv.URL)
	}
}

// TestRingSwapUnderConcurrentDispatch hammers SetBackends while
// dispatches are in flight (run under -race): every dispatch must
// succeed against whichever ring it captured, and no swap may corrupt
// routing.
func TestRingSwapUnderConcurrentDispatch(t *testing.T) {
	a, b, c := newFleetNode(t), newFleetNode(t), newFleetNode(t)
	all := []string{a.srv.URL, b.srv.URL, c.srv.URL}
	sched := newScheduler(t, all)

	rings := [][]string{all, {a.srv.URL, b.srv.URL}, {b.srv.URL, c.srv.URL}, {c.srv.URL}}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sched.SetBackends(rings[i%len(rings)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var dispatchers sync.WaitGroup
	benches := frontendsim.Benchmarks()
	for w := 0; w < 4; w++ {
		dispatchers.Add(1)
		go func(w int) {
			defer dispatchers.Done()
			for i := 0; i < 50; i++ {
				req := frontendsim.Request{Benchmark: benches[(w*50+i)%len(benches)], Frontends: 1 + i%4}
				if req.Frontends == 3 { // 4 clusters must divide evenly
					req.Frontends = 4
				}
				if _, err := sched.Dispatch(t.Context(), req); err != nil {
					t.Errorf("dispatch during ring churn: %v", err)
					return
				}
			}
		}(w)
	}
	dispatchers.Wait()
	close(stop)
	swapper.Wait()
	if st := sched.Stats(); st.Dispatched == 0 {
		t.Errorf("stats = %+v, want dispatches recorded", st)
	}
}

// TestQuarantinedMemberServesInFlight pins the drain semantics: a
// member whose health check starts failing is quarantined (new traffic
// reshards away) while a request already in flight to it runs to
// completion, uninterrupted.
func TestQuarantinedMemberServesInFlight(t *testing.T) {
	a, b := newFleetNode(t), newFleetNode(t)
	sched := newScheduler(t, []string{a.srv.URL, b.srv.URL})
	reg, err := membership.New(membership.Config{
		ProbeInterval:   time.Hour, // driven manually via ProbeNow
		ProbeTimeout:    2 * time.Second,
		QuarantineAfter: 1,
		EvictAfter:      -1,
		OnChange:        sched.OnMembershipChange(),
	}, []string{a.srv.URL, b.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	// Park a request on A, gated so it stays in flight.
	gate := make(chan struct{})
	a.simGate.Store(&gate)
	req, _ := homedRequest(t, sched, a.srv.URL)
	type result struct {
		res *frontendsim.Result
		err error
	}
	resc := make(chan result, 1)
	go func() {
		res, err := sched.Dispatch(t.Context(), req)
		resc <- result{res, err}
	}()
	select {
	case <-a.started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached A")
	}

	// A's health collapses; one probe round quarantines it and swaps the
	// ring — but must not touch the parked request.
	a.unhealthy.Store(true)
	reg.ProbeNow(t.Context())
	if got := reg.Active(); len(got) != 1 || got[0] != b.srv.URL {
		t.Fatalf("active after failed probe = %v, want just B", got)
	}
	if got := sched.Ring().Nodes(); len(got) != 1 || got[0] != b.srv.URL {
		t.Fatalf("ring after quarantine = %v, want just B", got)
	}

	// New dispatches reshard onto B while A drains.  (A distinct key:
	// re-dispatching the parked request would coalesce with it.)
	other := req
	other.BankHopping = !req.BankHopping
	if _, err := sched.Dispatch(t.Context(), other); err != nil {
		t.Fatalf("resharded dispatch: %v", err)
	}
	if b.simHits.Load() == 0 {
		t.Error("resharded dispatch did not land on B")
	}

	// Release the gate: the parked request on quarantined A completes.
	close(gate)
	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("in-flight request on quarantined member = %v, want completion", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete after quarantine")
	}
}

// TestTotalOutageRoutesEveryQuarantinedMember pins that the fleet
// cannot latch open on one member: when dispatch verdicts quarantine
// every member, the ring holds all of them, not just the one
// quarantined last, so the first backend to answer again serves the
// next dispatch — with no probe round.
func TestTotalOutageRoutesEveryQuarantinedMember(t *testing.T) {
	nodes := []*fleetNode{newFleetNode(t), newFleetNode(t)}
	for _, n := range nodes {
		n.down.Store(true)
	}
	urls := fleetURLs(nodes)
	sched, members := newPassiveFleet(t, Config{Backends: urls}, 1)

	// One dispatch fails on its home node, then on the other: each
	// failure quarantines its node.
	req := frontendsim.Request{Benchmark: "gzip"}
	if _, err := sched.Dispatch(t.Context(), req); err == nil {
		t.Fatal("dispatch over a dead fleet succeeded")
	}
	if got := members.Active(); len(got) != 0 {
		t.Fatalf("active members = %v, want none", got)
	}
	ring := sched.Ring().Nodes()
	slices.Sort(ring)
	if want := slices.Sorted(slices.Values(urls)); !slices.Equal(ring, want) {
		t.Fatalf("ring after total outage = %v, want every quarantined member %v", ring, want)
	}

	// The home node, quarantined first, answers again: the next
	// dispatch reaches it, though the registry still has it
	// quarantined.
	key, err := sched.eng.RequestKey(req)
	if err != nil {
		t.Fatal(err)
	}
	home := slices.Index(urls, sched.Ring().Sequence(key)[0])
	nodes[home].down.Store(false)
	if _, err := sched.Dispatch(t.Context(), req); err != nil {
		t.Fatalf("dispatch after the home node came back: %v", err)
	}
	if got := nodes[home].simHits.Load(); got != 1 {
		t.Errorf("recovered node served %d requests, want 1", got)
	}
	if st := members.Stats(); st.Probes != 0 {
		t.Errorf("membership ran %d probes, want none", st.Probes)
	}
}

// postSimulation runs one request through the scheduler HTTP server and
// returns the response status (body drained and closed).
func postSimulation(t *testing.T, baseURL string, req frontendsim.Request) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/simulations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/simulations: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestSelfManagingRingIntegration is the acceptance test from the
// issue: a 3-backend fleet under continuous load; killing one backend
// quarantines it within QuarantineAfter probe rounds and evicts it
// after the deadline with zero client-visible request failures; a
// restart plus admin rejoin puts it back in rotation; and /metrics
// reflects the quarantine, the eviction and the request traffic.
func TestSelfManagingRingIntegration(t *testing.T) {
	nodes := []*fleetNode{newFleetNode(t), newFleetNode(t), newFleetNode(t)}
	metrics := obs.NewRegistry()
	sched, err := New(frontendsim.New(testOpts()...), Config{
		Backends: fleetURLs(nodes),
		Metrics:  metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, regErr := membership.New(membership.Config{
		ProbeInterval:   time.Hour, // rounds driven manually: "within 2
		ProbeTimeout:    2 * time.Second,
		QuarantineAfter: 2, // probe intervals" holds by construction
		EvictAfter:      60 * time.Millisecond,
		OnChange:        sched.OnMembershipChange(),
		Metrics:         metrics,
	}, fleetURLs(nodes))
	if regErr != nil {
		t.Fatal(regErr)
	}
	front := httptest.NewServer(NewServer(sched, WithMembership(reg), WithMetrics(metrics)))
	t.Cleanup(front.Close)

	// Continuous client load: every benchmark, repeatedly, recording any
	// non-200 response.  The scheduler's ring walk must absorb the kill,
	// the quarantine, the eviction and the rejoin invisibly.
	benches := frontendsim.Benchmarks()
	var failures atomic.Int64
	loadRound := func() {
		for _, bench := range benches {
			if code := postSimulation(t, front.URL, frontendsim.Request{Benchmark: bench}); code != http.StatusOK {
				failures.Add(1)
				t.Errorf("client saw status %d for %s", code, bench)
			}
		}
	}

	loadRound() // healthy baseline
	victim := nodes[0]
	victimReq, _ := homedRequest(t, sched, victim.srv.URL)

	// Kill the victim.  Requests homed on it now fail over inside the
	// walk until the probes catch up.
	victim.down.Store(true)
	loadRound()

	// First failed probe round: still active (QuarantineAfter=2).
	reg.ProbeNow(t.Context())
	if got := len(reg.Active()); got != 3 {
		t.Fatalf("active after 1 failed probe = %d members, want 3", got)
	}
	loadRound()

	// Second failed round: quarantined, ring swaps to 2 nodes.
	reg.ProbeNow(t.Context())
	if got := reg.Active(); len(got) != 2 {
		t.Fatalf("active after 2 failed probes = %v, want 2 members", got)
	}
	if got := sched.Ring().Nodes(); len(got) != 2 {
		t.Fatalf("ring after quarantine = %v, want 2 nodes", got)
	}
	epochAtQuarantine := reg.Epoch()
	hitsAtQuarantine := victim.simHits.Load()
	loadRound()
	if got := victim.simHits.Load(); got != hitsAtQuarantine {
		t.Errorf("quarantined backend received %d new requests, want 0", got-hitsAtQuarantine)
	}

	// Past the deadline the next round evicts it permanently.
	time.Sleep(80 * time.Millisecond)
	reg.ProbeNow(t.Context())
	if got := len(reg.Snapshot()); got != 2 {
		t.Fatalf("members after eviction deadline = %d, want 2", got)
	}
	if st := reg.Stats(); st.Quarantines != 1 || st.Evictions != 1 {
		t.Fatalf("membership stats = %+v, want 1 quarantine and 1 eviction", st)
	}
	loadRound()

	// "Restart" the victim and rejoin it through the admin API — the
	// same call simd's -announce flag makes on startup.
	victim.down.Store(false)
	if err := membership.Announce(t.Context(), nil, front.URL, victim.srv.URL); err != nil {
		t.Fatalf("rejoin announce: %v", err)
	}
	if got := reg.Active(); len(got) != 3 {
		t.Fatalf("active after rejoin = %v, want 3 members", got)
	}
	if got := sched.Ring().Nodes(); len(got) != 3 {
		t.Fatalf("ring after rejoin = %v, want 3 nodes", got)
	}
	if reg.Epoch() <= epochAtQuarantine {
		t.Errorf("epoch after rejoin = %d, want > %d", reg.Epoch(), epochAtQuarantine)
	}
	loadRound()

	// The rejoined backend is back in rotation: its homed request lands
	// on it again.
	before := victim.simHits.Load()
	if code := postSimulation(t, front.URL, victimReq); code != http.StatusOK {
		t.Fatalf("post-rejoin homed request: status %d", code)
	}
	if victim.simHits.Load() != before+1 {
		t.Error("post-rejoin homed request did not land on the rejoined backend")
	}

	if got := failures.Load(); got != 0 {
		t.Fatalf("%d client-visible failures across kill/quarantine/evict/rejoin, want 0", got)
	}

	// GET /v1/ring reports membership state alongside the ring.
	resp, err := http.Get(front.URL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ringOut struct {
		Backends []string          `json:"backends"`
		Epoch    uint64            `json:"epoch"`
		Members  []membership.Info `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ringOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ringOut.Backends) != 3 || len(ringOut.Members) != 3 || ringOut.Epoch == 0 {
		t.Errorf("GET /v1/ring = %+v, want 3 backends, 3 members, nonzero epoch", ringOut)
	}

	// /metrics shows the lifecycle counters and the traffic histograms.
	resp, err = http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(raw)
	for _, want := range []string{
		`ring_transitions_total{kind="quarantine"} 1`,
		`ring_transitions_total{kind="evict"} 1`,
		`ring_members{state="active"} 3`,
		`scheduler_ring_size 3`,
		`http_request_duration_seconds_count{handler="POST /v1/simulations",code="200"}`,
		`scheduler_dispatches_total{kind="dispatched"}`,
		`scheduler_dispatches_total{kind="retried"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The kill forced real failovers, so the retried counter must have
	// moved — the histograms and counters change under fleet events, not
	// just exist.
	if st := sched.Stats(); st.Retried == 0 {
		t.Errorf("stats = %+v, want retries recorded while the victim was dead but routable", st)
	}
}
