package fleet

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/pkg/frontendsim"
	"repro/pkg/scheduler"
)

func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	cfg.Engine = []frontendsim.Option{frontendsim.WithWarmupOps(5_000), frontendsim.WithMeasureOps(10_000)}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitReady(time.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

// post sends one gzip simulation to url and returns its status and
// X-Cache header.
func post(url string) (int, string, error) {
	resp, err := http.Post(url+"/v1/simulations", "application/json", strings.NewReader(`{"benchmark":"gzip"}`))
	if err != nil {
		return 0, "", err
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Cache"), nil
}

// TestKillAndRestartOverDisk kills a disk-backed replica — every
// request is dropped without a response — and restarts it at the same
// URL: the restarted process serves the key it stored before the kill
// as a HIT, with zero engine runs.
func TestKillAndRestartOverDisk(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 1, Store: DiskStore(0)})
	r := f.Replicas[0]
	if code, src, err := post(r.URL); err != nil || code != 200 || src != "MISS" || r.Runs() != 1 {
		t.Fatalf("first request: %d %q %v, %d runs; want 200 MISS, 1 run", code, src, err, r.Runs())
	}
	r.Kill()
	if code, _, err := post(r.URL); err == nil {
		t.Fatalf("killed replica answered %d; want a dropped connection", code)
	}
	if err := r.Restart(); err != nil {
		t.Fatal(err)
	}
	if code, src, err := post(r.URL); err != nil || code != 200 || src != "HIT" || r.Runs() != 0 {
		t.Fatalf("after restart: %d %q %v, %d runs; want 200 HIT, 0 runs", code, src, err, r.Runs())
	}
}

// TestFaultProxyFrontsReplica puts a status rule on a replica's
// injector and sees it at the replica's URL, then sees the scheduler
// built over the fleet walk past it.
func TestFaultProxyFrontsReplica(t *testing.T) {
	f := newTestFleet(t, Config{Replicas: 2, FaultSeed: 1})
	bad := f.Replicas[0]
	bad.Faults.Add(faultinject.Rule{Status: 503})
	if code, _, err := post(bad.URL); err != nil || code != 503 {
		t.Fatalf("faulted replica: %d %v; want the injected 503", code, err)
	}
	sched, members, err := f.Scheduler(scheduler.Config{}, nil)
	if err != nil || members != nil {
		t.Fatalf("Scheduler without membership: registry %v, err %v", members, err)
	}
	for _, bench := range frontendsim.Benchmarks() {
		req := frontendsim.Request{Benchmark: bench}
		if key, _ := f.Engine.RequestKey(req); sched.Ring().Node(key) != bad.URL {
			continue
		}
		if _, err := sched.Dispatch(t.Context(), req); err != nil || sched.Stats().Retried != 1 {
			t.Fatalf("dispatch of %s, homed on the faulted replica: %v, %d retries; want one failover",
				bench, err, sched.Stats().Retried)
		}
		break
	}
	if err := WaitRing(sched, 0, f.Replicas[1].URL); err == nil || !strings.Contains(err.Error(), bad.URL) {
		t.Errorf("WaitRing on a ring it never reaches: %v; want an error naming the ring", err)
	}
}
