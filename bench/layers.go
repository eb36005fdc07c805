package main

import (
	"context"
	"encoding/json"
	"time"

	"repro/pkg/frontendsim"
)

// layerMetric names one per-layer metric, its unit and which direction
// is better.
type layerMetric struct{ name, unit, better string }

// perLayerMetrics lists every metric the traced run reports, in order.
// The layers are named after the repository's modules.
var perLayerMetrics = []layerMetric{
	{"core.ns_per_cycle", "ns", "lower"},
	{"core.ns_per_op", "ns", "lower"},
	{"core.run_share", "fraction", "lower"},
	{"core.event_pushes_per_kcycle", "1/kcycle", "lower"},
	{"power.us_per_interval", "us", "lower"},
	{"thermal.us_per_step", "us", "lower"},
	{"thermal.converge_ms", "ms", "lower"},
	{"sim.build_ms", "ms", "lower"},
	{"sim.power_thermal_share", "fraction", "lower"},
	{"frontendsim.run_ms_p50", "ms", "lower"},
	{"frontendsim.request_key_us", "us", "lower"},
	{"frontendsim.result_decode_us", "us", "lower"},
	{"frontendsim.result_encode_us", "us", "lower"},
	{"frontendsim.suite_fanin_ms", "ms", "lower"},
	{"resultstore.sched.get_us_p50", "us", "lower"},
	{"resultstore.sched.hit_ratio", "fraction", "higher"},
	{"resultstore.simd.get_us_p50", "us", "lower"},
	{"resultstore.simd.set_us_p50", "us", "lower"},
	{"resultstore.simd.hit_ratio", "fraction", "higher"},
	{"resultstore.simd.sets", "count", "lower"},
	{"singleflight.join_ratio", "fraction", "higher"},
	{"simd.hit_us_p50", "us", "lower"},
	{"simd.hit_us_p99", "us", "lower"},
	{"simd.miss_ms_p50", "ms", "lower"},
	{"simd.requests", "count", "lower"},
	{"simd.engine_runs", "count", "lower"},
	{"scheduler.handler_ms_p50", "ms", "lower"},
	{"scheduler.self_ms_p50", "ms", "lower"},
	{"scheduler.rtt_us_p50", "us", "lower"},
	{"scheduler.rtt_us_p99", "us", "lower"},
	{"scheduler.dispatches_per_suite", "1/op", "lower"},
	{"scheduler.retries", "count", "lower"},
	{"scheduler.coalesced", "count", "higher"},
	{"hashring.share_max_min", "ratio", "lower"},
	{"runtime.alloc_kb_per_op", "KB/op", "lower"},
	{"runtime.gc_cpu_fraction", "fraction", "lower"},
	{"bench.late_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// microTimes are the frontendsim calls timed in isolation.
type microTimes struct {
	requestKeyUs, decodeUs, encodeUs, fanInMs float64
}

// timeMicro times RequestKey over reqs, the JSON decode and encode of one
// stored result body, and RunSuiteVia fanning in all 26 benchmarks from
// memory.  Each is the median of several batches.
func timeMicro(ctx context.Context, reqs []frontendsim.Request, body []byte) (microTimes, error) {
	const batches = 7
	var mt microTimes
	eng := frontendsim.New()
	var res frontendsim.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return mt, err
	}
	batch := func(n int, f func() error) (float64, error) {
		var per []float64
		for b := 0; b < batches; b++ {
			t := time.Now()
			for i := 0; i < n; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			per = append(per, time.Since(t).Seconds()/float64(n))
		}
		return median(per), nil
	}
	var err error
	i := 0
	if mt.requestKeyUs, err = batch(500, func() error {
		_, err := eng.RequestKey(reqs[i%len(reqs)])
		i++
		return err
	}); err != nil {
		return mt, err
	}
	if mt.decodeUs, err = batch(200, func() error {
		var r frontendsim.Result
		return json.Unmarshal(body, &r)
	}); err != nil {
		return mt, err
	}
	if mt.encodeUs, err = batch(200, func() error {
		_, err := json.Marshal(&res)
		return err
	}); err != nil {
		return mt, err
	}
	suite := frontendsim.SuiteRequest{Request: reqs[0]}
	if mt.fanInMs, err = batch(5, func() error {
		_, err := eng.RunSuiteVia(ctx, suite, func(context.Context, frontendsim.Request) (*frontendsim.Result, error) {
			return &res, nil
		})
		return err
	}); err != nil {
		return mt, err
	}
	mt.requestKeyUs *= 1e6
	mt.decodeUs *= 1e6
	mt.encodeUs *= 1e6
	mt.fanInMs *= 1e3
	return mt, nil
}

// perLayer computes every per-layer metric from the traced phase tr, the
// untraced phase un of the same inputs, the simulator replay and the
// isolated frontendsim timings.
func perLayer(un, tr *phase, rep *simReplay, mt microTimes) []metric {
	var (
		schedGet, simdGet, simdSet []float64
		schedHits, simdHits        int
		hitUs, missMs              []float64
		simdReqs                   int
		handlerMs, rttUs           []float64
	)
	hosts := map[string]int{}
	for _, s := range tr.spans {
		d := s.dur()
		switch s.Name {
		case "resultstore.sched.get":
			schedGet = append(schedGet, us(d))
			if s.Source == "hit" {
				schedHits++
			}
		case "resultstore.simd.get":
			simdGet = append(simdGet, us(d))
			if s.Source == "hit" {
				simdHits++
			}
		case "resultstore.simd.set":
			simdSet = append(simdSet, us(d))
		case "simd.handler":
			simdReqs++
			switch s.Source {
			case "HIT":
				hitUs = append(hitUs, us(d))
			case "MISS":
				missMs = append(missMs, ms(d))
			}
		case "scheduler.handler":
			handlerMs = append(handlerMs, ms(d))
		case "scheduler.rtt":
			rttUs = append(rttUs, us(d))
			hosts[s.Host]++
		}
	}
	var self []float64
	for _, d := range selfTimes(tr.spans, "scheduler.handler", "scheduler.rtt") {
		self = append(self, ms(d))
	}
	share := 0.0
	if len(hosts) > 0 {
		lo, hi := -1, 0
		for _, n := range hosts {
			hi = max(hi, n)
			if lo < 0 || n < lo {
				lo = n
			}
		}
		if len(hosts) < fleetReplicas {
			lo = 0
		}
		share = float64(hi) / float64(max(lo, 1))
	}

	// Shares are of the replay's own total, timed on the same goroutine
	// as its parts; frontendsim.run_ms_p50 is Engine.Run itself.
	lt := rep.layers
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	total := max(ns(lt.total), 1)
	ops := max(tr.ops, 1)
	suites := ops
	if tr.suites > 0 {
		suites = tr.suites
	}
	val := map[string]float64{
		"core.ns_per_cycle":              ns(lt.run) / float64(max(lt.cycles, 1)),
		"core.ns_per_op":                 ns(lt.run) / float64(max(lt.ops, 1)),
		"core.run_share":                 ns(lt.run) / total,
		"core.event_pushes_per_kcycle":   float64(lt.eventPushes) / (float64(max(lt.cycles, 1)) / 1e3),
		"power.us_per_interval":          ns(lt.power) / 1e3 / float64(max(lt.intervals, 1)),
		"thermal.us_per_step":            ns(lt.step) / 1e3 / float64(max(lt.intervals, 1)),
		"thermal.converge_ms":            ns(lt.converge) / 1e6 / float64(max(lt.runs, 1)),
		"sim.build_ms":                   ns(lt.build) / 1e6 / float64(max(lt.runs, 1)),
		"sim.power_thermal_share":        ns(lt.power+lt.step+lt.converge) / total,
		"frontendsim.run_ms_p50":         median(rep.runMs),
		"frontendsim.request_key_us":     mt.requestKeyUs,
		"frontendsim.result_decode_us":   mt.decodeUs,
		"frontendsim.result_encode_us":   mt.encodeUs,
		"frontendsim.suite_fanin_ms":     mt.fanInMs,
		"resultstore.sched.get_us_p50":   median(schedGet),
		"resultstore.sched.hit_ratio":    ratio(schedHits, len(schedGet)),
		"resultstore.simd.get_us_p50":    median(simdGet),
		"resultstore.simd.set_us_p50":    median(simdSet),
		"resultstore.simd.hit_ratio":     ratio(simdHits, len(simdGet)),
		"resultstore.simd.sets":          float64(len(simdSet)),
		"singleflight.join_ratio":        ratio(tr.joins, tr.repeats),
		"simd.hit_us_p50":                median(hitUs),
		"simd.hit_us_p99":                percentile(hitUs, 99),
		"simd.miss_ms_p50":               median(missMs),
		"simd.requests":                  float64(simdReqs),
		"simd.engine_runs":               float64(tr.engineRuns),
		"scheduler.handler_ms_p50":       median(handlerMs),
		"scheduler.self_ms_p50":          median(self),
		"scheduler.rtt_us_p50":           median(rttUs),
		"scheduler.rtt_us_p99":           percentile(rttUs, 99),
		"scheduler.dispatches_per_suite": float64(tr.sched1.Dispatched-tr.sched0.Dispatched) / float64(suites),
		"scheduler.retries":              float64(tr.sched1.Retried - tr.sched0.Retried),
		"scheduler.coalesced":            float64(tr.sched1.Coalesced - tr.sched0.Coalesced),
		"hashring.share_max_min":         share,
		"runtime.alloc_kb_per_op":        (tr.rt1.allocBytes - tr.rt0.allocBytes) / 1024 / float64(ops),
		"runtime.gc_cpu_fraction":        (tr.rt1.gcCPU - tr.rt0.gcCPU) / max(tr.rt1.totalCPU-tr.rt0.totalCPU, 1e-9),
		"bench.late_ms_p99":              percentile(tr.late, 99),
		"bench.trace_overhead_pct":       (median(tr.lat)/median(un.lat) - 1) * 100,
	}
	out := make([]metric, 0, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out = append(out, metric{Name: m.name, Value: val[m.name], Unit: m.unit})
	}
	return out
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
