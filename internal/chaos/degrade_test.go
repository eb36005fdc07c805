package chaos

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// deadTier errors on every operation and counts each failure in its
// stats — a back tier that died under a live replica.
type deadTier struct{ errs atomic.Uint64 }

func (d *deadTier) Get(context.Context, string) ([]byte, bool, error) {
	d.errs.Add(1)
	return nil, false, errors.New("back tier down")
}

func (d *deadTier) Set(context.Context, string, []byte) error {
	d.errs.Add(1)
	return errors.New("back tier down")
}

func (d *deadTier) Stats() []resultstore.TierStats {
	return []resultstore.TierStats{{Tier: "back", Errors: d.errs.Load()}}
}

func (d *deadTier) Close() error { return nil }

// TestChaosDeadBackTierDegrades runs a memory-over-dead-back-tier
// simd and asserts the degradation contract: every request keeps
// succeeding (warm keys from the memory tier, cold keys from the
// engine), /healthz stays 200, no client ever sees an error — and the
// failure is *visible*, not swallowed: the back tier's error counter
// moves on /metrics while the requests stay clean.
func TestChaosDeadBackTierDegrades(t *testing.T) {
	reg := obs.NewRegistry()
	url := newFleet(t, fleet.Config{
		Replicas: 1,
		Server:   []simd.Option{simd.WithMetrics(reg)},
		Store: func(string) (resultstore.Store, error) {
			return resultstore.NewTiered(resultstore.NewMemory(16), &deadTier{}), nil
		},
	}).Replicas[0].URL

	post := func(bench string) *http.Response {
		t.Helper()
		resp, err := http.Post(url+"/v1/simulations", "application/json",
			strings.NewReader(fmt.Sprintf(`{"benchmark":%q}`, bench)))
		if err != nil {
			t.Fatalf("post %s: %v", bench, err)
		}
		return resp
	}

	// Warm one key: it lands in the memory tier, the dead tier refuses it.
	warm := post("gzip")
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d", warm.StatusCode)
	}

	// The warm key answers from the memory tier.
	hit := post("gzip")
	hit.Body.Close()
	if hit.StatusCode != http.StatusOK || hit.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("warm key with a dead back tier: status %d, X-Cache %q, want 200 HIT",
			hit.StatusCode, hit.Header.Get("X-Cache"))
	}
	// Cold keys compute: the dead back tier reads as a miss, never as a
	// client-visible failure.
	for _, bench := range frontendsim.Benchmarks()[1:4] {
		resp := post(bench)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold %s with a dead back tier: status %d, want 200", bench, resp.StatusCode)
		}
	}
	// Health stays green: a live front tier means degraded, not down.
	health, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz with a dead back tier = %d, want 200", health.StatusCode)
	}

	// The degradation is observable: back-tier errors and memory-tier
	// misses both moved.
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	exposition := sb.String()
	if n := metricSum(t, exposition, "simd_store_ops_total", `tier="memory",op="miss"`); n < 3 {
		t.Errorf(`memory-tier misses = %v, want >= 3 (the cold keys)`, n)
	}
	if n := metricSum(t, exposition, "simd_store_ops_total", `tier="back",op="error"`); n < 1 {
		t.Errorf(`back-tier errors on the store exposition = %v, want >= 1`, n)
	}
}
