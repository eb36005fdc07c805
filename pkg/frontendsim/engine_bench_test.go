package frontendsim

import (
	"context"
	"testing"
)

// benchTechniques are the paper's eight evaluated configurations:
// baseline, distributed frontend, bank hopping, biased mapping,
// hopping+biasing, blank silicon, all three techniques together, DTM.
var benchTechniques = []Request{
	{},
	{Frontends: 2},
	{BankHopping: true},
	{BiasedMapping: true},
	{BankHopping: true, BiasedMapping: true},
	{BlankSilicon: true},
	{Frontends: 2, BankHopping: true, BiasedMapping: true},
	{DTM: true},
}

// shortRunRequests are the keys of one short-run sweep: the paper's
// eight evaluated configurations × three intervals, at 300+600 micro-ops,
// the lengths a benchmark prefill seeds its served keys with.  The
// benchmark names rotate through the suite so the sweep covers varied
// profiles.
func shortRunRequests() []Request {
	names := Benchmarks()
	var out []Request
	for _, tech := range benchTechniques {
		for _, iv := range []uint64{10_000, 20_000, 40_000} {
			r := tech
			r.Benchmark = names[len(out)%len(names)]
			r.WarmupOps, r.MeasureOps, r.IntervalCycles = 300, 600, iv
			out = append(out, r)
		}
	}
	return out
}

// BenchmarkEngineRunShort measures Engine.Run on short runs, where the
// per-run set-up (floorplan, thermal model, steady-state warm start)
// weighs as much as the cycle loop.  One op is the whole 24-run sweep;
// ms/run reports the mean of one run.
func BenchmarkEngineRunShort(b *testing.B) {
	eng := New()
	reqs := shortRunRequests()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := eng.Run(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(reqs)), "ms/run")
}

// coldRunRequests are the runs of one cold-suite-shaped suite: eight
// runs at the cold suite's 30k+60k micro-ops, one per evaluated
// configuration, with the cold suite's intervals rotating and the
// benchmarks spread over the whole suite, so cheap and costly profiles
// mix as they do in a cold shard stream.
func coldRunRequests() []Request {
	names := Benchmarks()
	intervals := []uint64{25_000, 50_000, 100_000}
	out := make([]Request, len(benchTechniques))
	for i, tech := range benchTechniques {
		r := tech
		r.Benchmark = names[i*len(names)/len(benchTechniques)]
		r.WarmupOps, r.MeasureOps, r.IntervalCycles = 30_000, 60_000, intervals[i%len(intervals)]
		out[i] = r
	}
	return out
}

// BenchmarkEngineRunCold measures Engine.Run at cold-suite length,
// where the cycle loop is nearly all of a run's cost.  One op is the
// whole 8-run suite, run serially; ms/run reports the mean of one run.
func BenchmarkEngineRunCold(b *testing.B) {
	eng := New()
	reqs := coldRunRequests()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := eng.Run(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*len(reqs)), "ms/run")
}
