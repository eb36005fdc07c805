package membership

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestReportDispatchQuarantines feeds passive dispatch failures into the
// registry: the consecutive-failure streak quarantines a member at
// QuarantineAfter without waiting for a probe round, and the change is
// announced through OnChange like any probe-driven transition.
func TestReportDispatchQuarantines(t *testing.T) {
	stub := newHealthStub(t)
	var epochs []uint64
	var mu sync.Mutex
	cfg := testConfig()
	cfg.OnChange = func(epoch uint64, _ []string) {
		mu.Lock()
		epochs = append(epochs, epoch)
		mu.Unlock()
	}
	// A second, never-probed member keeps the quarantine a
	// routable-set change.
	const peer = "http://peer.invalid"
	reg, err := New(cfg, []string{stub.srv.URL, peer})
	if err != nil {
		t.Fatal(err)
	}

	fault := errors.New("dispatch: connection refused")
	reg.ReportDispatch(stub.srv.URL, fault)
	if got := reg.Active(); len(got) != 2 {
		t.Fatalf("member quarantined after 1 passive failure (threshold 2): %v", got)
	}
	reg.ReportDispatch(stub.srv.URL, fault)
	if got := reg.Active(); len(got) != 1 || got[0] != peer {
		t.Fatalf("active after 2 passive failures = %v, want only the peer", got)
	}
	snap := reg.Snapshot()
	if len(snap) != 2 || snap[0].URL != stub.srv.URL || snap[0].State != StateQuarantined || snap[0].LastError == "" {
		t.Fatalf("snapshot = %+v, want the stub quarantined with error detail", snap)
	}

	st := reg.Stats()
	if st.PassiveReports != 2 || st.PassiveFailures != 2 || st.Quarantines != 1 {
		t.Errorf("stats = %+v, want 2 passive reports, 2 failures, 1 quarantine", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 1 {
		t.Errorf("epochs = %v, want exactly 1 change (quarantine)", epochs)
	}
}

// TestReportDispatchSuccessResetsStreak interleaves passive failures
// with a success: the streak resets, so the member never quarantines.
func TestReportDispatchSuccessResetsStreak(t *testing.T) {
	stub := newHealthStub(t)
	reg, err := New(testConfig(), []string{stub.srv.URL})
	if err != nil {
		t.Fatal(err)
	}

	fault := errors.New("dispatch: 500")
	reg.ReportDispatch(stub.srv.URL, fault)
	reg.ReportDispatch(stub.srv.URL, nil) // streak reset
	reg.ReportDispatch(stub.srv.URL, fault)
	if got := reg.Active(); len(got) != 1 {
		t.Fatalf("member quarantined despite interleaved success: %v", got)
	}
	if snap := reg.Snapshot(); snap[0].ConsecutiveFailures != 1 {
		t.Errorf("streak = %d, want 1", snap[0].ConsecutiveFailures)
	}
}

// TestReportDispatchDoesNotReinstate pins the recovery policy: a passive
// success must NOT reinstate a quarantined member — a quarantined
// backend receives no routed traffic, so any late success belongs to a
// request from before quarantine.  Recovery stays probe-driven.
func TestReportDispatchDoesNotReinstate(t *testing.T) {
	stub := newHealthStub(t)
	reg, err := New(testConfig(), []string{stub.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	fault := errors.New("dispatch: down")
	reg.ReportDispatch(stub.srv.URL, fault)
	reg.ReportDispatch(stub.srv.URL, fault)
	if got := reg.Active(); len(got) != 0 {
		t.Fatal("member not quarantined")
	}

	// A straggler in-flight request succeeds: still quarantined.
	reg.ReportDispatch(stub.srv.URL, nil)
	if got := reg.Active(); len(got) != 0 {
		t.Fatal("passive success reinstated a quarantined member")
	}

	// The recovery probe reinstates.
	reg.ProbeNow(context.Background())
	if got := reg.Active(); len(got) != 1 {
		t.Fatal("recovery probe did not reinstate")
	}
}

// TestReportDispatchUnknownMember ignores verdicts about members the
// registry no longer tracks (dispatch racing an eviction or leave).
func TestReportDispatchUnknownMember(t *testing.T) {
	stub := newHealthStub(t)
	reg, err := New(testConfig(), []string{stub.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	reg.ReportDispatch("http://gone.invalid", errors.New("refused"))
	if got := reg.Active(); len(got) != 1 {
		t.Fatalf("unknown-member report disturbed the ring: %v", got)
	}
	if st := reg.Stats(); st.PassiveReports != 1 || st.Quarantines != 0 {
		t.Errorf("stats = %+v, want 1 report, 0 quarantines", st)
	}
}

// TestTotalOutageRoutesQuarantinedMembers pins the routable set through
// a total outage: while no member is active it is every quarantined
// member not yet evicted — not the one quarantined last — so OnChange
// never delivers an empty set while a member is left, and an eviction
// during the outage shrinks it.
func TestTotalOutageRoutesQuarantinedMembers(t *testing.T) {
	stubs := map[string]*healthStub{}
	for range 2 {
		stub := newHealthStub(t)
		stub.fail.Store(true)
		stubs[stub.srv.URL] = stub
	}
	urls := slices.Sorted(maps.Keys(stubs))
	first, second := urls[0], urls[1]
	var log changeLog
	cfg := testConfig()
	cfg.QuarantineAfter = 1
	cfg.EvictAfter = time.Minute
	cfg.OnChange = log.record
	reg, err := New(cfg, urls)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Now()
	reg.now = func() time.Time { return clock }
	fault := errors.New("dispatch: connection refused")

	reg.ReportDispatch(first, fault)
	clock = clock.Add(30 * time.Second)
	reg.ReportDispatch(second, fault)
	checkLifecycle(t, "outage", reg, &log, lifecycle{joins: 2, quarantines: 2},
		"1:"+second, "2:"+first+","+second)
	if got := reg.Active(); len(got) != 0 {
		t.Fatalf("active members = %v, want none", got)
	}

	// 61 s after its quarantine the first member is evicted; the
	// second, 31 s in, stays routable.
	clock = clock.Add(31 * time.Second)
	reg.ProbeNow(context.Background())
	checkLifecycle(t, "eviction", reg, &log, lifecycle{joins: 2, quarantines: 2, evictions: 1},
		"1:"+second, "2:"+first+","+second, "3:"+second)

	// Its recovery reinstates it without changing the routable set.
	stubs[second].fail.Store(false)
	reg.ProbeNow(context.Background())
	checkLifecycle(t, "recovery", reg, &log, lifecycle{joins: 2, quarantines: 2, reinstates: 1, evictions: 1},
		"1:"+second, "2:"+first+","+second, "3:"+second)
	if got := reg.Active(); !slices.Equal(got, []string{second}) {
		t.Errorf("active members = %v, want [%s]", got, second)
	}
}
