package frontendsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtm"
)

// suiteKeySeeds are suites over the golden templates: duplicate
// positions, the nil (all-profile) benchmark list, a full Config
// override with DTM, and suites that must be rejected.
func suiteKeySeeds() []SuiteRequest {
	cfg := core.DefaultConfig()
	cfg.Frontends = 2
	seeds := []SuiteRequest{
		{Request: Request{Config: &cfg, DTM: true}},
		{Benchmarks: []string{"gzip", "mcf", "gzip", "swim", "mcf"}, Request: Request{Config: &cfg, DTM: true, MeasureOps: 1000}},
		{Benchmarks: []string{}},
		{Benchmarks: []string{"gzip", "nosuch"}},
		{Benchmarks: []string{"", "gzip"}},
		{Benchmarks: []string{"gzip"}, Request: Request{BankHopping: true, BlankSilicon: true}},
		{Benchmarks: []string{"nosuch"}, Request: Request{Frontends: 3}},
		{Benchmarks: []string{"gzip", "nosuch"}, Request: Request{Frontends: 3}},
	}
	for _, req := range goldenRequests() {
		seeds = append(seeds,
			SuiteRequest{Request: req},
			SuiteRequest{Benchmarks: []string{req.Benchmark, "gcc", req.Benchmark}, Request: req})
	}
	return seeds
}

// expandedValidate is SuiteRequest.Validate as the first error of every
// expanded request's Validate in suite order: the contract the
// once-per-template validation keeps.
func expandedValidate(s SuiteRequest) error {
	if len(s.Benchmarks) == 0 && s.Benchmarks != nil {
		return s.Validate()
	}
	for _, r := range s.Requests() {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkSuiteKeys runs suite through the streaming suite path and checks
// that every dispatch is handed RequestKey of its request, that every
// distinct key is dispatched exactly once, and that the suite path
// rejects exactly when SuiteRequest.Validate does, with the same error.
func checkSuiteKeys(t *testing.T, eng *Engine, suite SuiteRequest) {
	t.Helper()
	var (
		mu         sync.Mutex
		dispatched = map[string]int{}
		mismatch   []string
	)
	_, err := eng.RunSuiteStream(context.Background(), suite,
		func(_ context.Context, key string, req Request) (*Result, string, error) {
			want, err := eng.RequestKey(req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil || key != want {
				mismatch = append(mismatch, req.Benchmark+": handed "+key+", RequestKey "+want+" "+errText(err))
			}
			dispatched[key]++
			return &Result{Benchmark: req.Benchmark}, "", nil
		}, nil)
	if got, want := errText(err), errText(suite.Validate()); got != want {
		t.Fatalf("suite path error %q, Validate error %q", got, want)
	}
	if got, want := errText(suite.Validate()), errText(expandedValidate(suite)); got != want {
		t.Fatalf("Validate error %q, expanded requests' first error %q", got, want)
	}
	for _, m := range mismatch {
		t.Errorf("key mismatch: %s", m)
	}
	if err != nil {
		return
	}
	distinct := map[string]bool{}
	for _, r := range suite.Requests() {
		key, err := eng.RequestKey(r)
		if err != nil {
			t.Fatal(err)
		}
		distinct[key] = true
		if dispatched[key] != 1 {
			t.Errorf("%s (%s) dispatched %d times, want 1", r.Benchmark, key, dispatched[key])
		}
	}
	if len(dispatched) != len(distinct) {
		t.Errorf("dispatched %d keys, the suite has %d", len(dispatched), len(distinct))
	}
}

func TestSuiteKeysMatchRequestKey(t *testing.T) {
	d := dtm.DefaultConfig()
	d.TriggerC++
	engines := map[string]*Engine{
		"default":  New(WithWorkers(2)),
		"with_dtm": New(WithWorkers(2), WithDTM(d), WithMeasureOps(5000)),
	}
	for name, eng := range engines {
		t.Run(name, func(t *testing.T) {
			for _, suite := range suiteKeySeeds() {
				checkSuiteKeys(t, eng, suite)
			}
		})
	}
}

// TestKeyTemplateEscapesLikeMarshal pins appendJSONString to
// json.Marshal's string encoding for names that need escaping; every
// profile name takes the copy-between-quotes path.
func TestKeyTemplateEscapesLikeMarshal(t *testing.T) {
	eng := New()
	kt, err := eng.newKeyTemplate(Request{Frontends: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(Benchmarks(), `a"b`, `back\slash`, "<&>", "tab\there", "é", "\xff", " ") {
		b, err := eng.canonicalJSON(Request{Benchmark: name, Frontends: 2})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := kt.key(name), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("key(%q) = %s, canonical encoding hashes to %s", name, got, want)
		}
	}
}

// TestSuiteKeysAllocs pins the cost of deriving a full suite's keys at
// one allocation per key (its hex string) plus a constant: a per-shard
// json.Marshal coming back fails it.
func TestSuiteKeysAllocs(t *testing.T) {
	eng := New()
	suite := SuiteRequest{Request: Request{Frontends: 2, BankHopping: true}}
	n := len(Benchmarks())
	// The constant covers the suite's slices and its one json.Marshal,
	// whose pooled encoder the race detector's sync.Pool may drop; a
	// json.Marshal per key would add at least one more per key.
	const constant = 16
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := eng.suiteKeys(suite); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(n + constant); allocs > limit {
		t.Fatalf("deriving %d keys took %.0f allocs, want <= %.0f", n, allocs, limit)
	}
}

// FuzzSuiteKeys decodes fuzzed bytes as a SuiteRequest the way the
// suite endpoints do and runs it through the suite path: each dispatch
// must be handed RequestKey of its expanded request, and the suite
// path must reject exactly when SuiteRequest.Validate does, with the
// same error.  Run `go test -fuzz FuzzSuiteKeys ./pkg/frontendsim` to
// hunt for longer.
func FuzzSuiteKeys(f *testing.F) {
	for _, suite := range suiteKeySeeds() {
		seed, err := json.Marshal(suite)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"benchmarks":null,"request":{"benchmark":"ignored","dtm":true}}`))
	f.Add([]byte(`{"benchmarks":["mcf","mcf"],"request":{"frontends":2,"biased_mapping":true}}`))
	eng := New(WithWorkers(2))
	f.Fuzz(func(t *testing.T, data []byte) {
		var suite SuiteRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&suite); err != nil {
			return
		}
		checkSuiteKeys(t, eng, suite)
	})
}
