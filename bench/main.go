// Command bench is the repository's benchmark.  It builds an in-process
// fleet — one simsched (pkg/scheduler) in front of three simd replicas
// (internal/simd), talking HTTP over loopback — drives one seeded
// workload through it from this one client process, checks the bytes of
// every response, and prints every metric by name and unit.  The last
// line of its output is a JSON object:
//
//	{"correct": true, "attempted": 231, "failed": 0, "metrics": {"setup_s": {"value": 0.012, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; -trace 1 runs the
// same inputs twice, untraced then with timing wrappers around every
// layer, replays a sample of simulations layer by layer, and reports the
// per-layer metrics.  -runs N instead runs every workload N times in
// child processes and prints each metric's median and quartiles.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload cold-suite --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --runs 5 --seconds 30
//
// bench/README.md describes the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	workdir  string
	runs     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, "|"))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds of measured traffic")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reporting the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default <workdir>/trace-<workload>.json)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for disk stores and span files")
	flag.IntVar(&o.runs, "runs", 0, "stability mode: run every workload this many times and print medians and quartiles")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	if o.runs > 0 {
		err = stability(ctx, o)
	} else {
		err = runOnce(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runOnce runs one workload once and prints its report.  An incorrect
// run prints its report and fails.
func runOnce(ctx context.Context, o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("bench: -seconds must be positive")
	}
	e := env{p: defaultParams(), seed: o.seed, dur: time.Duration(o.seconds * float64(time.Second)), workdir: o.workdir}
	var r *report
	var err error
	if o.trace == 0 {
		r, err = endToEnd(ctx, e, o.workload)
	} else {
		if o.traceOut == "" {
			o.traceOut = filepath.Join(o.workdir, "trace-"+o.workload+".json")
		}
		r, err = traced(ctx, e, o.workload, o.traceOut)
	}
	if err != nil {
		return err
	}
	r.Lines = append([]string{fmt.Sprintf("workload %s seed %d seconds %g trace %d", o.workload, o.seed, o.seconds, o.trace)}, r.Lines...)
	if err := r.print(os.Stdout); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("bench: %s failed its correctness checks", o.workload)
	}
	return nil
}

// endToEnd is the untraced run: one phase and the end-to-end metrics.
func endToEnd(ctx context.Context, e env, name string) (*report, error) {
	p, err := runPhase(ctx, e, name)
	if err != nil {
		return nil, err
	}
	r := verdict(p)
	// p95, not p99, is the tail: across seeds p99 spread up to 2.4 times
	// as wide (see README.md); p99 is still printed.
	r.Metrics = []metric{
		{Name: "setup_s", Value: p.setup.Seconds(), Unit: "s"},
		pct("latency_ms", p.lat, 50, "ms"),
		pct("latency_ms", p.lat, 95, "ms"),
		{Name: "throughput_per_s", Value: float64(len(p.lat)) / p.elapsed.Seconds(), Unit: "1/s"},
		{Name: "peak_rss_mb", Value: p.rssMB, Unit: "MB"},
	}
	r.Notes = append(p.notes, pct("latency_ms", p.lat, 90, "ms"), pct("latency_ms", p.lat, 99, "ms"),
		metric{Name: "error_ratio", Value: ratio(p.failed, p.ops), Unit: "fraction"})
	return r, nil
}

// traced runs the inputs untraced for half the time and traced for the
// other half, on fresh fleets, then replays a sample of cold-suite
// simulations layer by layer and times frontendsim's calls in isolation.
func traced(ctx context.Context, e env, name, out string) (*report, error) {
	e.dur /= 2
	un, err := runPhase(ctx, e, name)
	if err != nil {
		return nil, err
	}
	e.tracer = newTracer()
	tr, err := runPhase(ctx, e, name)
	if err != nil {
		return nil, err
	}
	if err := e.tracer.write(out); err != nil {
		return nil, err
	}
	reqs := replayRequests(e.p, e.seed)
	rep, err := replaySample(ctx, reqs)
	if err != nil {
		return nil, err
	}
	mt, err := timeMicro(ctx, reqs, tr.sample)
	if err != nil {
		return nil, fmt.Errorf("bench: time frontendsim calls: %w", err)
	}
	r := verdict(un, tr)
	r.Metrics = perLayer(un, tr, rep, mt)
	r.Lines = append(r.Lines, fmt.Sprintf("  spans: %d written to %s", len(tr.spans), out))
	return r, nil
}

// verdict folds the phases' operation counts and oracle results.
func verdict(ps ...*phase) *report {
	r := &report{Correct: true}
	for _, p := range ps {
		r.Attempted += p.ops
		r.Failed += p.failed
		r.Lines = append(r.Lines, fmt.Sprintf("  results_sha256 %s over the first %d responses", p.sha, p.shaOps))
		for _, inv := range p.invalid {
			r.Correct = false
			r.Lines = append(r.Lines, "  INCORRECT: "+inv)
		}
	}
	if r.Attempted == 0 {
		r.Correct = false
		r.Lines = append(r.Lines, "  INCORRECT: no operation completed")
	}
	return r
}
