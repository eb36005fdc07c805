package frontendsim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testEngine keeps unit runs short.
func testEngine(opts ...Option) *Engine {
	base := []Option{WithWarmupOps(30_000), WithMeasureOps(60_000)}
	return New(append(base, opts...)...)
}

func TestRunMatchesSimRun(t *testing.T) {
	eng := testEngine()
	res, err := eng.Run(context.Background(), Request{Benchmark: "gzip", BankHopping: true})
	if err != nil {
		t.Fatal(err)
	}

	prof, _ := workload.ByName("gzip")
	opt := sim.DefaultOptions()
	opt.WarmupOps, opt.MeasureOps = 30_000, 60_000
	want, err := sim.RunHooked(core.DefaultConfig().WithBankHopping(), prof, opt, nil)
	if err != nil {
		t.Fatal(err)
	}

	if res.MeasCycles != want.MeasCycles || res.MeasOps != want.MeasOps {
		t.Errorf("engine run (%d cycles, %d ops) != sim.Run (%d cycles, %d ops)",
			res.MeasCycles, res.MeasOps, want.MeasCycles, want.MeasOps)
	}
	if res.IPC != want.IPC() {
		t.Errorf("IPC %v != %v", res.IPC, want.IPC())
	}
	if res.TCHops != want.TCHops {
		t.Errorf("hops %d != %d", res.TCHops, want.TCHops)
	}
	if got := res.Units[UnitProcessor]; got != want.Temps.Unit(nil) {
		t.Errorf("processor triple %+v != %+v", got, want.Temps.Unit(nil))
	}
	if res.Raw() == nil {
		t.Error("in-process result lost its raw sim.Result")
	}
}

func TestObserverOneSnapshotPerInterval(t *testing.T) {
	var snaps []Snapshot
	eng := testEngine(WithObserver(ObserverFunc(func(s Snapshot) {
		snaps = append(snaps, s)
	})))
	res, err := eng.Run(context.Background(), Request{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals == 0 {
		t.Fatal("run recorded no intervals")
	}
	if len(snaps) != res.Intervals {
		t.Fatalf("observer saw %d snapshots, result has %d intervals", len(snaps), res.Intervals)
	}
	var cumCycles, cumOps uint64
	for i, s := range snaps {
		if s.Interval != i {
			t.Fatalf("snapshot %d has interval index %d", i, s.Interval)
		}
		if s.Benchmark != "gzip" {
			t.Fatalf("snapshot benchmark = %q", s.Benchmark)
		}
		if len(s.TempsC) != len(res.Blocks) || len(s.PowerW) != len(res.Blocks) {
			t.Fatalf("snapshot %d: %d temps / %d powers for %d blocks",
				i, len(s.TempsC), len(s.PowerW), len(res.Blocks))
		}
		cumCycles += s.DeltaCycles
		cumOps += s.DeltaOps
		if s.Cycles != cumCycles || s.Ops != cumOps {
			t.Fatalf("snapshot %d cumulative (%d, %d) != sum of deltas (%d, %d)",
				i, s.Cycles, s.Ops, cumCycles, cumOps)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Cycles != res.MeasCycles || last.Ops != res.MeasOps {
		t.Errorf("last snapshot (%d, %d) != result (%d, %d)",
			last.Cycles, last.Ops, res.MeasCycles, res.MeasOps)
	}
}

func TestRunHonorsCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int32
	obs := ObserverFunc(func(Snapshot) {
		if seen.Add(1) == 2 {
			cancel() // cancel between intervals, mid-run
		}
	})
	eng := testEngine()
	res, err := eng.RunObserved(ctx, Request{Benchmark: "gzip"}, obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if n := seen.Load(); n < 2 || n > 3 {
		t.Errorf("observer ran %d times after cancellation at the 2nd interval", n)
	}

	// A context cancelled before the run starts never simulates at all.
	if _, err := eng.Run(ctx, Request{Benchmark: "gzip"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run err = %v", err)
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"empty", Request{}, "no benchmark"},
		{"unknown", Request{Benchmark: "nosuch"}, `unknown benchmark "nosuch"`},
		{"exclusive", Request{Benchmark: "gzip", BankHopping: true, BlankSilicon: true}, "mutually exclusive"},
		{"badFrontends", Request{Benchmark: "gzip", Frontends: 3}, "invalid configuration"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", tc.name, err, tc.want)
		}
		if _, runErr := testEngine().Run(context.Background(), tc.req); runErr == nil {
			t.Errorf("%s: Run accepted an invalid request", tc.name)
		}
	}
	if err := (Request{Benchmark: "gzip", Frontends: 2, BankHopping: true}).Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

func TestRequestKeyCanonicalization(t *testing.T) {
	eng := testEngine()
	key := func(r Request) string {
		t.Helper()
		k, err := eng.RequestKey(r)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	// Equivalent spellings — toggles vs. the explicit resolved config —
	// hash identically.
	spelled := core.DefaultConfig().WithDistributedFrontend(2).WithBankHopping()
	a := key(Request{Benchmark: "gzip", Frontends: 2, BankHopping: true})
	b := key(Request{Benchmark: "gzip", Config: &spelled})
	if a != b {
		t.Error("equivalent requests hash differently")
	}

	// Any semantic difference changes the key.
	if key(Request{Benchmark: "gzip"}) == key(Request{Benchmark: "mcf"}) {
		t.Error("different benchmarks share a key")
	}
	if key(Request{Benchmark: "gzip"}) == key(Request{Benchmark: "gzip", BankHopping: true}) {
		t.Error("different configs share a key")
	}
	if key(Request{Benchmark: "gzip"}) == key(Request{Benchmark: "gzip", MeasureOps: 70_000}) {
		t.Error("different run lengths share a key")
	}

	// Engine defaults participate: the same request on a different engine
	// resolves to a different key.
	other := New(WithWarmupOps(30_000), WithMeasureOps(90_000))
	k2, err := other.RequestKey(Request{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if k2 == key(Request{Benchmark: "gzip"}) {
		t.Error("different engine defaults share a key")
	}

	if _, err := eng.RequestKey(Request{Benchmark: "nosuch"}); err == nil {
		t.Error("RequestKey accepted an invalid request")
	}

	// Overrides hash by value: an engine with a custom DTM tuning must
	// not share keys with the request-level default-DTM toggle, and two
	// engines with different DTM tunings must differ too.
	custom := dtm.DefaultConfig()
	custom.TriggerC = 90
	dtmEng := New(WithWarmupOps(30_000), WithMeasureOps(60_000), WithDTM(custom))
	customKey, err := dtmEng.RequestKey(Request{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	defaultKey := key(Request{Benchmark: "gzip", DTM: true})
	if customKey == defaultKey {
		t.Error("custom WithDTM tuning and default DTM toggle share a key")
	}
	if k := key(Request{Benchmark: "gzip"}); k == defaultKey || k == customKey {
		t.Error("DTM-less request shares a key with a DTM run")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	eng := testEngine()
	res, err := eng.Run(context.Background(), Request{Benchmark: "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.Raw() != nil {
		t.Error("raw result survived a JSON round-trip")
	}
	back.raw = res.raw
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(again) {
		t.Error("result JSON not stable across a round-trip")
	}
	if back.Units[UnitROB] != res.Units[UnitROB] {
		t.Errorf("ROB triple %+v != %+v after round-trip", back.Units[UnitROB], res.Units[UnitROB])
	}

	var req Request
	reqBody := []byte(`{"benchmark":"gzip","frontends":2,"bank_hopping":true,"measure_ops":60000}`)
	if err := json.Unmarshal(reqBody, &req); err != nil {
		t.Fatal(err)
	}
	if req.Benchmark != "gzip" || req.Frontends != 2 || !req.BankHopping || req.MeasureOps != 60000 {
		t.Errorf("request did not unmarshal faithfully: %+v", req)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 26 {
		t.Fatalf("Benchmarks() = %d names, want 26", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Benchmarks() not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}
