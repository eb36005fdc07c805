package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/frontendsim"
	"repro/pkg/resultstore"
)

// tinyParams shrinks every workload so one runs in about a second.
func tinyParams() params {
	p := defaultParams()
	p.Techniques = techniques[:2]
	p.Benchmarks = []string{"gcc", "gzip", "mcf", "swim"}
	p.ColdWarmup, p.ColdMeasure = 300, 600
	p.ColdIntervals = []uint64{5_000}
	p.ColdSuiteLen = 2
	p.WarmIntervals = []uint64{5_000, 10_000}
	p.PrefillWarmup, p.PrefillMeasure = 200, 400
	p.HotInterval = 5_000
	p.FreshOps = [2]uint64{600, 1_200}
	return p
}

func tinyEnv(t *testing.T, seed uint64, dur time.Duration) env {
	return env{p: tinyParams(), seed: seed, dur: dur, workdir: t.TempDir()}
}

// benchmarkFile is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatches(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program reports %d", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if pl := f.PerLayer[i]; pl.Name != m.name || pl.Unit != m.unit || pl.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, pl, m)
		}
	}
}

// TestWorkloadsTiny runs every workload through the benchmark's own code
// path, untraced and traced, at tiny scale.
func TestWorkloadsTiny(t *testing.T) {
	ctx := context.Background()
	want := loadBenchmarkFile(t).EndToEnd
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			e := tinyEnv(t, 3, time.Second)
			r, err := endToEnd(ctx, e, name)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d\n%v", r.Correct, r.Attempted, r.Failed, r.Lines)
			}
			if len(r.Metrics) != len(want) {
				t.Fatalf("untraced run reported %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(want))
			}
			for i, m := range r.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Value <= 0 {
					t.Errorf("metric %d = %s %v %s, want %s in %s, > 0", i, m.Name, m.Value, m.Unit, want[i].Name, want[i].Unit)
				}
			}

			out := filepath.Join(e.workdir, "trace.json")
			r, err = traced(ctx, e, name, out)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d\n%v", r.Correct, r.Failed, r.Lines)
			}
			if len(r.Metrics) != len(perLayerMetrics) {
				t.Fatalf("traced run reported %d metrics, want %d", len(r.Metrics), len(perLayerMetrics))
			}
			for i, m := range r.Metrics {
				if m.Name != perLayerMetrics[i].name {
					t.Errorf("metric %d = %s, want %s", i, m.Name, perLayerMetrics[i].name)
				}
			}
			var buf bytes.Buffer
			if err := r.print(&buf); err != nil {
				t.Fatal(err)
			}
			if _, correct, err := parseResult(buf.Bytes()); err != nil || !correct {
				t.Fatalf("result line: correct=%v err=%v", correct, err)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	p := defaultParams()
	cold := func(seed uint64) []frontendsim.SuiteRequest {
		g := newColdGen(p, seed)
		var out []frontendsim.SuiteRequest
		for i := 0; i < 100; i++ { // spans two rounds
			out = append(out, g.suite(i))
		}
		return out
	}
	warm := func(seed uint64) []int {
		z := newZipfSeq(seed, len(warmTemplates(p)))
		var out []int
		for i := 0; i < 500; i++ {
			out = append(out, z.at(i))
		}
		return out
	}
	mixed := func(seed uint64) []openReq { return mixedSchedule(p, seed, 10*time.Second) }
	for name, gen := range map[string]func(uint64) any{
		"cold":  func(s uint64) any { return cold(s) },
		"warm":  func(s uint64) any { return warm(s) },
		"mixed": func(s uint64) any { return mixed(s) },
	} {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	p := defaultParams()
	eng := frontendsim.New()
	g := newColdGen(p, 7)
	seen := map[string]bool{}
	for i := 0; i < 150; i++ {
		s := g.suite(i)
		if len(s.Benchmarks) != p.ColdSuiteLen {
			t.Fatalf("suite %d has %d benchmarks", i, len(s.Benchmarks))
		}
		for _, r := range s.Requests() {
			key, err := eng.RequestKey(r)
			if err != nil {
				t.Fatal(err)
			}
			if seen[key] {
				t.Fatalf("suite %d repeats key of %s", i, r.Benchmark)
			}
			seen[key] = true
		}
	}
}

func TestMixedScheduleShares(t *testing.T) {
	p := defaultParams()
	sched := mixedSchedule(p, 5, 60*time.Second)
	count := map[int]int{}
	last := time.Duration(-1)
	for i, r := range sched {
		count[r.Class]++
		if r.Due < last {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		last = r.Due
	}
	n := float64(len(sched))
	if rate := n / 60; rate < 0.9*openRate || rate > 1.1*openRate {
		t.Errorf("rate %.1f/s, want about %d", rate, openRate)
	}
	for class, want := range map[int]float64{classHot: 0.88, classFresh: 0.08, classRepeat: 0.04} {
		if got := float64(count[class]) / n; got < want-0.01 || got > want+0.01 {
			t.Errorf("class %d share %.3f, want %.2f", class, got, want)
		}
	}
}

// stubClock is a virtual clock for one open-loop worker: sleeping jumps
// to the target plus a fixed overshoot, and each send takes a fixed
// service time.
type stubClock struct {
	t         time.Duration
	overshoot time.Duration
}

func (c *stubClock) now() time.Duration { return c.t }

func (c *stubClock) sleepUntil(_ context.Context, t time.Duration) { c.t = t + c.overshoot }

func TestOpenLoopAccounting(t *testing.T) {
	ms := time.Millisecond
	clk := &stubClock{overshoot: ms}
	dues := []time.Duration{0, 10 * ms, 12 * ms, 40 * ms}
	samples := openLoop(context.Background(), dues, 1, clk, func(context.Context, int) { clk.t += 5 * ms })
	want := []struct {
		latency, start time.Duration
		waited         bool
	}{
		{5 * ms, 0, false},       // due now: sent at once
		{6 * ms, 11 * ms, true},  // idle worker woke 1 ms late
		{9 * ms, 16 * ms, false}, // queued 4 ms behind the previous send
		{6 * ms, 41 * ms, true},  // idle again
	}
	for i, w := range want {
		s := samples[i]
		if s.latency() != w.latency || s.start != w.start || s.waited != w.waited {
			t.Errorf("request %d: latency %v start %v waited %v, want %v %v %v",
				i, s.latency(), s.start, s.waited, w.latency, w.start, w.waited)
		}
	}
}

func TestOpenLoopBoundsConnections(t *testing.T) {
	var inFlight, peak atomic.Int32
	dues := make([]time.Duration, 12) // all due at once
	samples := openLoop(context.Background(), dues, 2, newWallClock(), func(context.Context, int) {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	})
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrent sends %d, want 2", p)
	}
	for i, s := range samples {
		if s.done < s.start || s.start < s.due {
			t.Errorf("request %d: due %v start %v done %v", i, s.due, s.start, s.done)
		}
	}
}

// TestWrappersKeepStats sends the same requests to an unwrapped and a
// traced fleet and compares the replicas' /v1/cache/stats and the
// scheduler's Stats.
func TestWrappersKeepStats(t *testing.T) {
	ctx := context.Background()
	p := tinyParams()
	suite, err := json.Marshal(warmTemplates(p)[0])
	if err != nil {
		t.Fatal(err)
	}
	single, err := json.Marshal(hotRequests(p)[1])
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		path string
		body []byte
	}{
		{"/v1/suites", suite}, {"/v1/suites", suite},
		{"/v1/suites/stream", suite}, {"/v1/simulations", single}, {"/v1/simulations", single},
	}
	// cacheStats is a replica's /v1/cache/stats body.
	type cacheStats struct {
		Entries   int                     `json:"entries"`
		Hits      uint64                  `json:"hits"`
		Misses    uint64                  `json:"misses"`
		Coalesced uint64                  `json:"coalesced"`
		Tiers     []resultstore.TierStats `json:"tiers"`
	}
	// run returns the replicas' stats summed field by field: the ring
	// hashes the replicas' URLs, whose ports differ between fleets, so
	// only the fleet-wide sums are comparable.
	run := func(tr *tracer, disk bool) (cacheStats, any) {
		dir := ""
		if disk {
			dir = t.TempDir()
		}
		f, err := startFleet(ctx, dir, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		e := env{tracer: tr}
		for _, s := range steps {
			status, _, out, err := e.postRead(ctx, f, s.path, s.body)
			if err != nil || status != http.StatusOK {
				t.Fatalf("%s: status %d err %v: %s", s.path, status, err, out)
			}
		}
		var sum cacheStats
		for _, r := range f.replicas {
			resp, err := http.Get(r.http.URL + "/v1/cache/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st cacheStats
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			sum.Entries += st.Entries
			sum.Hits += st.Hits
			sum.Misses += st.Misses
			sum.Coalesced += st.Coalesced
			if sum.Tiers == nil {
				sum.Tiers = make([]resultstore.TierStats, len(st.Tiers))
			}
			for i, ts := range st.Tiers {
				s := &sum.Tiers[i]
				s.Tier = ts.Tier
				s.Entries += ts.Entries
				s.Bytes += ts.Bytes
				s.Hits += ts.Hits
				s.Misses += ts.Misses
				s.Sets += ts.Sets
				s.Errors += ts.Errors
			}
		}
		return sum, f.sched.Stats()
	}
	for _, disk := range []bool{false, true} {
		plainStats, plainSched := run(nil, disk)
		tr := newTracer()
		tracedStats, tracedSched := run(tr, disk)
		if !reflect.DeepEqual(plainStats, tracedStats) {
			t.Errorf("disk=%v: replica cache stats differ:\n%v\n%v", disk, plainStats, tracedStats)
		}
		if !reflect.DeepEqual(plainSched, tracedSched) {
			t.Errorf("disk=%v: scheduler stats differ:\n%+v\n%+v", disk, plainSched, tracedSched)
		}
		if len(tr.snapshot()) == 0 {
			t.Errorf("disk=%v: the traced fleet recorded no spans", disk)
		}
	}
}

// bareStore is a Store with neither Peek nor Keys.
type bareStore struct{ resultstore.Store }

func TestTimedStoreForwardsCapabilities(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	mem := resultstore.NewMemory(8)
	s := tr.store("x", mem)
	if err := s.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if v, ok, err := resultstore.Peek(ctx, s, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Peek = %q %v %v", v, ok, err)
	}
	if !reflect.DeepEqual(before, s.Stats()) {
		t.Errorf("Peek through the wrapper moved the stats: %+v -> %+v", before, s.Stats())
	}
	keys, ok, err := resultstore.ScanKeys(ctx, s, nil)
	if err != nil || !ok || !reflect.DeepEqual(keys, []string{"k"}) {
		t.Errorf("ScanKeys = %v %v %v", keys, ok, err)
	}

	bare := tr.store("y", bareStore{resultstore.NewMemory(8)})
	if _, ok, err := resultstore.ScanKeys(ctx, bare, nil); ok || !errors.Is(err, resultstore.ErrScanUnsupported) {
		t.Errorf("ScanKeys over a store without Keys = %v %v, want unsupported", ok, err)
	}
	if _, _, err := resultstore.Peek(ctx, bare, "k"); err != nil {
		t.Fatal(err)
	}
	if st := bare.Stats(); st[0].Misses != 1 {
		t.Errorf("Peek over a store without Peek should count a Get, stats %+v", st)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 9, Name: "c", Start: 0, End: 100},  // another parent's
	}
	if got := selfTimes(spans, "p", "c"); len(got) != 1 || got[0] != 100-40-10 {
		t.Errorf("selfTimes = %v, want [50ns]", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
}
