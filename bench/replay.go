package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
	"repro/pkg/frontendsim"
)

// replayShards is how many cold-suite shards the traced run replays.
const replayShards = 16

// layerTimes accumulates the host time a replay spent in each simulator
// layer, with the work done there.
type layerTimes struct {
	build, run, power, step, converge, total time.Duration
	cycles, ops, intervals, runs             uint64
	eventPushes                              uint64
}

func (a *layerTimes) add(b layerTimes) {
	a.build += b.build
	a.run += b.run
	a.power += b.power
	a.step += b.step
	a.converge += b.converge
	a.total += b.total
	a.cycles += b.cycles
	a.ops += b.ops
	a.intervals += b.intervals
	a.runs += b.runs
	a.eventPushes += b.eventPushes
}

// replayResult is what the replay of one request reproduces, to compare
// with Engine.Run on the same request.
type replayResult struct {
	cycles, measOps uint64
	peakRise        []float64
}

// replay re-runs one request through floorplan, core, power, thermal and
// dtm in the order internal/sim.RunHooked calls them, timing each call.
func replay(req frontendsim.Request) (replayResult, layerTimes, error) {
	var lt layerTimes
	if err := req.Validate(); err != nil {
		return replayResult{}, lt, err
	}
	t0 := time.Now()
	cfg := req.EffectiveConfig()
	prof, _ := workload.ByName(req.Benchmark)
	opt := sim.DefaultOptions()
	if req.WarmupOps > 0 {
		opt.WarmupOps = req.WarmupOps
	}
	if req.MeasureOps > 0 {
		opt.MeasureOps = req.MeasureOps
	}
	if req.IntervalCycles > 0 {
		opt.IntervalCycles = req.IntervalCycles
	}
	var ctl *dtm.Controller
	if req.DTM {
		ctl = dtm.New(dtm.DefaultConfig())
	}

	fp := floorplan.New(floorplan.Config{
		TCBanks:     cfg.TC.Banks,
		Distributed: cfg.Distributed(),
		Partitions:  cfg.Frontends,
		Clusters:    cfg.Clusters,
	})
	pm := power.New(cfg, fp, power.DefaultConstants())
	tm := thermal.New(fp, thermal.DefaultParams())
	proc := core.New(cfg, workload.NewGenerator(prof, opt.WarmupOps+opt.MeasureOps))
	lt.build = time.Since(t0)

	n := len(fp.Blocks)
	var cur, prev, delta core.Activity
	dyn, leak, p, temps := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	enabled := make([]bool, cfg.TC.Banks)
	bankT := make([]float64, cfg.TC.Banks)
	tcEnabled := func() {
		for b := range enabled {
			enabled[b] = proc.TraceCache().Enabled(b)
		}
	}
	runCycles := func(c uint64) {
		t := time.Now()
		proc.RunCycles(c)
		lt.run += time.Since(t)
	}

	// Profiling phase.
	warmupTarget := uint64(float64(opt.WarmupOps) * prof.LengthScaleOrOne())
	start := proc.Activity()
	tcEnabled()
	chunk := max(opt.IntervalCycles/8, 1)
	sinceHop := uint64(0)
	for !proc.Done() && proc.Stats.Committed < warmupTarget {
		runCycles(chunk)
		sinceHop += chunk
		if sinceHop >= opt.IntervalCycles {
			proc.TraceCache().Reconfigure(nil)
			sinceHop = 0
		}
		tcEnabled()
	}
	warm := proc.Activity().Sub(start)
	t := time.Now()
	nominal := pm.Dynamic(warm, enabled)
	pm.SetNominal(nominal)
	lt.power += time.Since(t)

	// Warm-start steady state with leakage convergence.
	t = time.Now()
	for i := range temps {
		temps[i] = tm.Ambient()
	}
	next := make([]float64, n)
	for iter := 0; iter < 40; iter++ {
		power.AddInto(p, nominal, pm.LeakageInto(temps, enabled, leak))
		tm.SteadyState(p)
		tm.TempsInto(next)
		maxD := 0.0
		for i := range next {
			maxD = max(maxD, math.Abs(next[i]-temps[i]))
		}
		temps, next = next, temps
		if maxD < 0.01 {
			break
		}
	}
	lt.converge = time.Since(t)

	// Measurement.
	areas := make([]float64, n)
	for i, b := range fp.Blocks {
		areas[i] = b.Area()
	}
	series := metrics.NewSeries(fp.Names(), areas, tm.Ambient())
	tcIdx := make([]int, cfg.TC.Banks)
	for b := range tcIdx {
		tcIdx[b] = fp.Index(floorplan.TCBank(b))
	}
	proc.ActivityInto(&prev)
	measStartCycles, measStartOps := proc.Cycle(), proc.Stats.Committed
	for !proc.Done() {
		runCycles(opt.IntervalCycles)
		proc.ActivityInto(&cur)
		cur.SubInto(&prev, &delta)
		cur, prev = prev, cur
		if delta.Cycles == 0 {
			break
		}
		tcEnabled()
		t := time.Now()
		pm.DynamicInto(&delta, enabled, dyn)
		pm.LeakageInto(temps, enabled, leak)
		power.AddInto(p, dyn, leak)
		t1 := time.Now()
		tm.Step(p, opt.IntervalSeconds*float64(delta.Cycles)/float64(opt.IntervalCycles))
		t2 := time.Now()
		lt.power += t1.Sub(t)
		lt.step += t2.Sub(t1)
		lt.intervals++
		tm.TempsInto(temps)
		series.Add(temps)
		for b, i := range tcIdx {
			bankT[b] = 0
			if i >= 0 {
				bankT[b] = temps[i]
			}
		}
		proc.TraceCache().Reconfigure(bankT)
		if ctl != nil {
			peak := temps[0]
			for _, v := range temps {
				peak = max(peak, v)
			}
			proc.SetFetchGate(ctl.Update(peak))
		}
	}
	lt.total = time.Since(t0)
	lt.runs = 1
	lt.cycles = proc.Cycle()
	lt.ops = proc.Stats.Committed
	lt.eventPushes = proc.Stats.EventPushes

	out := replayResult{
		cycles:   warm.Cycles + proc.Cycle() - measStartCycles,
		measOps:  proc.Stats.Committed - measStartOps,
		peakRise: make([]float64, n),
	}
	for i, b := range fp.Blocks {
		name := b.Name
		out.peakRise[i] = series.AbsMax(func(s string) bool { return s == name })
	}
	return out, lt, nil
}

// simReplay is the traced run's simulator half: the replayed layer times
// and the Engine.Run times of the same requests.
type simReplay struct {
	layers layerTimes
	runMs  []float64
}

// replaySample replays reqs serially while a second goroutine runs each
// through Engine.Run, and fails if any replay's cycle count or per-block
// peak rise differs from Engine.Run's.
func replaySample(ctx context.Context, reqs []frontendsim.Request) (*simReplay, error) {
	out := &simReplay{runMs: make([]float64, len(reqs))}
	want := make([]*frontendsim.Result, len(reqs))
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := frontendsim.New(frontendsim.WithWorkers(1))
		for i, r := range reqs {
			t := time.Now()
			res, err := eng.Run(ctx, r)
			if err != nil {
				runErr = err
				return
			}
			out.runMs[i] = ms(time.Since(t))
			want[i] = res
		}
	}()
	got := make([]replayResult, len(reqs))
	var replayErr error
	for i, r := range reqs {
		res, lt, err := replay(r)
		if err != nil {
			replayErr = err
			break
		}
		got[i] = res
		out.layers.add(lt)
	}
	wg.Wait()
	if replayErr != nil {
		return nil, replayErr
	}
	if runErr != nil {
		return nil, runErr
	}
	for i, r := range reqs {
		w := want[i]
		if got[i].cycles != w.WarmCycles+w.MeasCycles || got[i].measOps != w.MeasOps || !equalFloats(got[i].peakRise, w.PeakRiseC) {
			return nil, fmt.Errorf("bench: replay of %s differs from Engine.Run (cycles %d vs %d)",
				r.Benchmark, got[i].cycles, w.WarmCycles+w.MeasCycles)
		}
	}
	return out, nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayRequests is the seeded sample of cold-suite shards the traced run
// replays: the first shard of each of the first replayShards suites.
func replayRequests(p params, seed uint64) []frontendsim.Request {
	g := newColdGen(p, seed^0x5eed)
	out := make([]frontendsim.Request, replayShards)
	for i := range out {
		s := g.suite(i)
		out[i] = s.Request
		out[i].Benchmark = s.Benchmarks[0]
	}
	return out
}
