package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"repro/pkg/scheduler"
)

// env is what every workload run is given: the sizes, the seed, how long
// to measure, where it may write, and the tracer (nil when untraced).
type env struct {
	p       params
	seed    uint64
	dur     time.Duration
	workdir string
	tracer  *tracer
}

// runner is one workload: prepare fills the fresh fleet and captures the
// reference bodies (timed as set-up), measure drives the timed traffic,
// and verify runs the in-process oracle afterwards.
type runner interface {
	disk() bool
	prepare(ctx context.Context, f *fleet) error
	measure(ctx context.Context, f *fleet) (*phase, error)
	verify(ctx context.Context, p *phase) error
}

var workloadNames = []string{"cold-suite", "warm-suite", "mixed-open"}

func newRunner(name string, e env) (runner, error) {
	switch name {
	case "cold-suite":
		return &coldRun{env: e}, nil
	case "warm-suite":
		return &warmRun{env: e}, nil
	case "mixed-open":
		return &mixedRun{env: e}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, workloadNames)
}

// phase is what one measured run on one fleet produced.
type phase struct {
	setup   time.Duration
	elapsed time.Duration
	ops     int       // operations attempted: shards, suites or requests
	suites  int       // suites sent (0 for single requests)
	failed  int       // failed, refused or answered with wrong bytes
	lat     []float64 // latency of each successful operation, ms
	rssMB   float64
	notes   []metric // workload-specific numbers, printed only
	invalid []string // oracle failures
	sha     string   // over the first shaOps responses in send order
	shaOps  int

	// Counters around the timed traffic, for the per-layer metrics.
	sched0, sched1 scheduler.Stats
	rt0, rt1       runtimeSample
	engineRuns     uint64
	repeats, joins int
	late           []float64 // open-loop generator lateness, ms
	spans          []span
	sample         []byte // one stored result body
}

// Set-up — a fresh fleet to /healthz ready, then the workload's prefill
// — is repeated at least minSetups times, and again while the repeats
// have taken less than setupBudget (cold-suite's set-up is a millisecond
// of fleet start-up).  setup_s is the median; the last fleet is measured.
const (
	minSetups   = 3
	maxSetups   = 51
	setupBudget = time.Second
)

// runPhase sets up, measures the last fleet set up, and runs the oracle.
func runPhase(ctx context.Context, e env, name string) (*phase, error) {
	var (
		r      runner
		f      *fleet
		setups []float64
		spent  time.Duration
	)
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if f != nil {
			f.close()
		}
		var err error
		if r, err = newRunner(name, e); err != nil {
			return nil, err
		}
		diskDir := ""
		if r.disk() {
			diskDir = filepath.Join(e.workdir, "stores")
		}
		t0 := time.Now()
		if f, err = startFleet(ctx, diskDir, e.tracer); err != nil {
			return nil, err
		}
		if err := r.prepare(ctx, f); err != nil {
			f.close()
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	if e.tracer != nil {
		e.tracer.reset()
	}

	runs0 := f.engineRuns()
	sched0 := f.sched.Stats()
	rt0 := readRuntime()
	p, err := r.measure(ctx, f)
	if err != nil {
		return nil, err
	}
	p.rt0, p.rt1 = rt0, readRuntime()
	p.sched0, p.sched1 = sched0, f.sched.Stats()
	p.engineRuns = f.engineRuns() - runs0
	p.rssMB = peakRSSMB()
	if e.tracer != nil {
		p.spans = e.tracer.snapshot()
	}
	p.setup = time.Duration(median(setups) * float64(time.Second))
	if err := r.verify(ctx, p); err != nil {
		return nil, err
	}
	return p, nil
}

// post sends one JSON request through the load generator's client,
// parented on a client span when traced.
func (e env) post(ctx context.Context, f *fleet, path string, body []byte) (*http.Response, func(), error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	done := func() {}
	if t := e.tracer; t != nil {
		ref, _ := t.child(spanRef{})
		req.Header.Set(spanHeader, ref.String())
		start := t.now()
		done = func() {
			t.record(span{Trace: ref.trace, ID: ref.id, Name: "client.op", Start: start, End: t.now(), Key: path})
		}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		done()
		return nil, nil, err
	}
	return resp, done, nil
}

// postRead is post with the whole response body read.
func (e env) postRead(ctx context.Context, f *fleet, path string, body []byte) (status int, xcache string, out []byte, err error) {
	resp, done, err := e.post(ctx, f, path, body)
	if err != nil {
		return 0, "", nil, err
	}
	defer done()
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// ---------------------------------------------------------------------
// process counters

// runtimeSample holds the cumulative runtime counters a phase takes
// deltas of.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
