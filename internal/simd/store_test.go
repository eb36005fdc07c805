package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/pkg/frontendsim"
	"repro/pkg/obs"
	"repro/pkg/resultstore"
)

// TestRestartServesFromDiskStore is the persistence acceptance test: a
// simd instance backed by a disk store caches a simulation, the process
// "dies" (server discarded, store closed), and a fresh instance over
// the same directory serves the identical request with X-Cache: HIT —
// zero engine runs — with a body byte-identical to the engine-computed
// result.
func TestRestartServesFromDiskStore(t *testing.T) {
	dir := t.TempDir()
	const reqBody = `{"benchmark":"gzip","bank_hopping":true}`

	// First life: compute and persist.
	store1, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng1, runs1 := countingEngine(nil)
	first := post(t, NewServerWithStore(eng1, store1), "/v1/simulations", reqBody)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first life X-Cache = %q, want MISS", got)
	}
	if runs1.Load() != 1 {
		t.Fatalf("first life ran the engine %d times, want 1", runs1.Load())
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh engine and a fresh store over the same
	// directory.  The request must be served from disk, not recomputed.
	store2, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	eng2, runs2 := countingEngine(nil)
	srv2 := NewServerWithStore(eng2, store2)
	second := post(t, srv2, "/v1/simulations", reqBody)
	if second.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("post-restart X-Cache = %q, want HIT", got)
	}
	if runs2.Load() != 0 {
		t.Errorf("post-restart request ran the engine %d times, want 0", runs2.Load())
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("post-restart body differs from the first life's response")
	}

	// Byte-identity against a direct engine computation: the disk tier
	// serves exactly what the engine would produce.
	res, err := frontendsim.New(
		frontendsim.WithWarmupOps(30_000),
		frontendsim.WithMeasureOps(60_000),
	).Run(context.Background(), frontendsim.Request{Benchmark: "gzip", BankHopping: true})
	if err != nil {
		t.Fatal(err)
	}
	computed, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	computed = append(computed, '\n')
	if !bytes.Equal(computed, second.Body.Bytes()) {
		t.Error("disk-served body is not byte-identical to the engine-computed result")
	}

	// The stats endpoint attributes the hit to the disk tier.
	stats := httptest.NewRecorder()
	srv2.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	var st struct {
		Hits  uint64 `json:"hits"`
		Tiers []resultstore.TierStats
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 {
		t.Errorf("stats report %d hits, want 1", st.Hits)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Tier != "disk" || st.Tiers[0].Hits != 1 {
		t.Errorf("tiers = %+v, want one disk tier with 1 hit", st.Tiers)
	}
}

// TestTieredStoreReportsPerTierStats runs a tiered server through a
// MISS (fills both tiers) and a HIT (memory tier) and checks the
// per-tier accounting on /v1/cache/stats.
func TestTieredStoreReportsPerTierStats(t *testing.T) {
	disk, err := resultstore.OpenDisk(resultstore.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	eng, _ := countingEngine(nil)
	srv := NewServerWithStore(eng, resultstore.NewTiered(resultstore.NewMemory(16), disk))

	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", w.Header().Get("X-Cache"))
	}
	if w := post(t, srv, "/v1/simulations", `{"benchmark":"gzip"}`); w.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", w.Header().Get("X-Cache"))
	}

	stats := httptest.NewRecorder()
	srv.ServeHTTP(stats, httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil))
	var st struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Tiers   []resultstore.TierStats
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("totals = %+v, want 1 entry / 1 hit / 1 miss", st)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "memory" || st.Tiers[1].Tier != "disk" {
		t.Fatalf("tiers = %+v, want [memory disk]", st.Tiers)
	}
	if st.Tiers[0].Hits != 1 || st.Tiers[0].Sets != 1 || st.Tiers[1].Sets != 1 {
		t.Errorf("tier counters = %+v, want memory hit + write-through sets", st.Tiers)
	}
	if st.Tiers[1].Hits != 0 {
		t.Errorf("disk tier served %d hits, memory should have absorbed them", st.Tiers[1].Hits)
	}
}

// failingTier errors on every operation and counts each failure in its
// stats — a stand-in for a back tier that died.
type failingTier struct{ errs atomic.Uint64 }

var errTierDown = errors.New("tier down")

func (f *failingTier) Get(context.Context, string) ([]byte, bool, error) {
	f.errs.Add(1)
	return nil, false, errTierDown
}

func (f *failingTier) Set(context.Context, string, []byte) error {
	f.errs.Add(1)
	return errTierDown
}

func (f *failingTier) Stats() []resultstore.TierStats {
	return []resultstore.TierStats{{Tier: "back", Errors: f.errs.Load()}}
}

func (f *failingTier) Close() error { return nil }

// TestTieredRemoteDegradesWhenCacheDies: a replica with a memory tier
// in front of a failing back tier keeps serving (memory tier + engine)
// — requests succeed, nothing hangs, /healthz stays ready, and the back
// tier's failures show as errors in simd_store_ops_total.
func TestTieredRemoteDegradesWhenCacheDies(t *testing.T) {
	store := resultstore.NewTiered(resultstore.NewMemory(16), &failingTier{})
	defer store.Close()
	eng, runs := countingEngine(nil)
	reg := obs.NewRegistry()
	srv := NewServerWithStore(eng, store, WithMetrics(reg))

	const reqBody = `{"benchmark":"gzip"}`
	if w := post(t, srv, "/v1/simulations", reqBody); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first request: status %d, X-Cache %q, want 200 MISS", w.Code, w.Header().Get("X-Cache"))
	}
	// The memory tier answers the warm key.
	if w := post(t, srv, "/v1/simulations", reqBody); w.Header().Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache with a failing back tier = %q, want HIT from the memory tier",
			w.Header().Get("X-Cache"))
	}
	// A cold key computes: the failing back tier reads as a miss, not a
	// failure.
	w := post(t, srv, "/v1/simulations", `{"benchmark":"mcf"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("cold request with a failing back tier: status %d, body %s", w.Code, w.Body.String())
	}
	if runs.Load() != 2 {
		t.Errorf("engine ran %d times, want 2", runs.Load())
	}
	// Peek-backed health stays green: front tier healthy ⇒ degraded,
	// not down.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz with a failing back tier = %d, want 200", rec.Code)
	}
	if !strings.Contains(reg.Render(), `simd_store_ops_total{tier="back",op="error"}`) ||
		strings.Contains(reg.Render(), `simd_store_ops_total{tier="back",op="error"} 0`) {
		t.Errorf("back-tier errors absent from /metrics:\n%s", reg.Render())
	}
}
