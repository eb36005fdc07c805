// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (§4) as Go benchmarks.  Each benchmark runs a
// reduced-suite experiment and reports the figure's headline numbers as
// custom benchmark metrics (percent reductions of the temperature rise
// over ambient, slowdown percent), so `go test -bench=.` prints the same
// rows the paper plots.  cmd/experiments runs the full-length versions.
//
// Ablation benchmarks cover the design choices called out in DESIGN.md §7:
// hop interval length, the 3°C/×2 biasing rule, the number of trace-cache
// banks, and the number of frontend partitions.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tcache"
	"repro/internal/workload"
)

// benchOpts returns the reduced-length options used by the benchmark
// harness (3 benchmarks spanning int/memory-bound/FP behaviour).
func benchOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.Benchmarks = []string{"gzip", "mcf", "swim"}
	o.Sim.WarmupOps = 50_000
	o.Sim.MeasureOps = 120_000
	return o
}

func reportTriple(b *testing.B, prefix string, t metrics.Triple) {
	b.ReportMetric(t.AbsMax*100, prefix+"_absmax_%")
	b.ReportMetric(t.Average*100, prefix+"_avg_%")
	b.ReportMetric(t.AvgMax*100, prefix+"_avgmax_%")
}

// BenchmarkTable1Config measures processor construction at the Table 1
// configuration (a pure-CPU sanity benchmark for the machine setup path).
func BenchmarkTable1Config(b *testing.B) {
	prof, _ := workload.ByName("gzip")
	for i := 0; i < b.N; i++ {
		p := core.New(core.DefaultConfig(), workload.NewGenerator(prof, 1))
		if p.Config().ROBEntries != 256 {
			b.Fatal("bad config")
		}
	}
}

// BenchmarkFigure1 regenerates the baseline temperature landscape.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Processor.AbsMax, "processor_peak_C")
		b.ReportMetric(r.Processor.Average, "processor_avg_C")
		b.ReportMetric(r.Frontend.AbsMax, "frontend_peak_C")
		b.ReportMetric(r.Frontend.Average, "frontend_avg_C")
		b.ReportMetric(r.Backend.AbsMax, "backend_peak_C")
		b.ReportMetric(r.UL2.AbsMax, "ul2_peak_C")
	}
}

// BenchmarkFigure12 regenerates the distributed rename/commit figure.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		reportTriple(b, "rob", r.ROB)
		reportTriple(b, "rat", r.RAT)
		b.ReportMetric(r.Slowdown*100, "slowdown_%")
	}
}

// BenchmarkFigure13 regenerates the thermal-aware trace cache figure.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure13(benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Name {
			case "Address Biasing":
				b.ReportMetric(r.TC.AbsMax*100, "bias_tc_absmax_%")
			case "Bank Hopping":
				reportTriple(b, "hop_tc", r.TC)
				b.ReportMetric(r.RAT.AbsMax*100, "hop_rat_absmax_%")
				b.ReportMetric(r.Slowdown*100, "hop_slowdown_%")
				b.ReportMetric(r.TCHitLoss*100, "hop_hitloss_%")
			case "Bank Hopping + Address Biasing":
				reportTriple(b, "hopbias_tc", r.TC)
			}
		}
	}
}

// BenchmarkFigure14 regenerates the combined distributed frontend figure.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure14(benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[len(rows)-1] // the full combination
		reportTriple(b, "rob", r.ROB)
		reportTriple(b, "rat", r.RAT)
		reportTriple(b, "tc", r.TC)
		b.ReportMetric(r.Slowdown*100, "slowdown_%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles/s)
// on the baseline machine.  The workload is shared with the cycles/op
// pin test (cycles_pin_test.go) so the committed expectation always
// gates exactly what this benchmark measures.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := newThroughputProcessor(b)
		p.Run(0)
		b.ReportMetric(float64(p.Stats.Cycles), "cycles/op")
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §7)

func ablationRun(b *testing.B, cfg core.Config, opt sim.Options, bench string) *sim.Result {
	b.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		b.Fatal("unknown benchmark")
	}
	res, err := sim.RunHooked(cfg, prof, opt, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationHopInterval sweeps the bank-hopping interval: longer
// intervals lose fewer trace-cache contents (lower slowdown) but migrate
// activity less often (less peak reduction).
func BenchmarkAblationHopInterval(b *testing.B) {
	for _, ic := range []uint64{25_000, 100_000, 400_000} {
		ic := ic
		b.Run(intervalName(ic), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sim.DefaultOptions()
				opt.WarmupOps, opt.MeasureOps = 50_000, 150_000
				opt.IntervalCycles = ic
				opt.IntervalSeconds = 1e-3 * float64(ic) / 100_000
				base := ablationRun(b, core.DefaultConfig(), opt, "gzip")
				hop := ablationRun(b, core.DefaultConfig().WithBankHopping(), opt, "gzip")
				red := metrics.ReductionTriple(
					base.Temps.Unit(floorplan.IsTraceCache),
					hop.Temps.Unit(floorplan.IsTraceCache))
				b.ReportMetric(red.AbsMax*100, "tc_absmax_red_%")
				b.ReportMetric(metrics.Slowdown(base.MeasCycles, hop.MeasCycles)*100, "slowdown_%")
			}
		})
	}
}

func intervalName(ic uint64) string {
	switch ic {
	case 25_000:
		return "quarter"
	case 100_000:
		return "paper"
	default:
		return "quadruple"
	}
}

// BenchmarkAblationBiasRule sweeps the biasing halving rule around the
// paper's experimentally found 3°C (§3.2.2).
func BenchmarkAblationBiasRule(b *testing.B) {
	for _, deg := range []float64{1.5, 3, 6} {
		deg := deg
		name := map[float64]string{1.5: "aggressive_1.5C", 3: "paper_3C", 6: "gentle_6C"}[deg]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sim.DefaultOptions()
				opt.WarmupOps, opt.MeasureOps = 50_000, 150_000
				base := ablationRun(b, core.DefaultConfig(), opt, "gzip")
				cfg := core.DefaultConfig().WithBiasedMapping()
				cfg.TC.BiasDegreesPerHalving = deg
				biased := ablationRun(b, cfg, opt, "gzip")
				red := metrics.ReductionTriple(
					base.Temps.Unit(floorplan.IsTraceCache),
					biased.Temps.Unit(floorplan.IsTraceCache))
				b.ReportMetric(red.AbsMax*100, "tc_absmax_red_%")
				b.ReportMetric(metrics.Slowdown(base.MeasCycles, biased.MeasCycles)*100, "slowdown_%")
			}
		})
	}
}

// BenchmarkAblationBankCount sweeps the number of trace-cache banks under
// hopping (the paper uses 2+1).
func BenchmarkAblationBankCount(b *testing.B) {
	for _, banks := range []int{2, 3, 4} {
		banks := banks
		b.Run(bankName(banks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sim.DefaultOptions()
				opt.WarmupOps, opt.MeasureOps = 50_000, 150_000
				base := ablationRun(b, core.DefaultConfig(), opt, "gzip")
				cfg := core.DefaultConfig()
				cfg.TC.Banks = banks
				cfg.TC.Hopping = true
				// Keep the effective capacity close to the baseline (one
				// bank is always gated), rounded down to a power of two
				// so the bank tag stores keep power-of-two sets.
				per := cfg.TC.TracesPerBank * 2 / (banks - 1)
				pow := 1
				for pow*2 <= per {
					pow *= 2
				}
				cfg.TC.TracesPerBank = pow
				hop := ablationRun(b, cfg, opt, "gzip")
				red := metrics.ReductionTriple(
					base.Temps.Unit(floorplan.IsTraceCache),
					hop.Temps.Unit(floorplan.IsTraceCache))
				b.ReportMetric(red.AbsMax*100, "tc_absmax_red_%")
				b.ReportMetric(red.Average*100, "tc_avg_red_%")
				b.ReportMetric(metrics.Slowdown(base.MeasCycles, hop.MeasCycles)*100, "slowdown_%")
			}
		})
	}
}

func bankName(b int) string {
	switch b {
	case 2:
		return "1+1banks"
	case 3:
		return "2+1banks_paper"
	default:
		return "3+1banks"
	}
}

// BenchmarkAblationFrontends sweeps the number of frontend partitions for
// the distributed rename/commit mechanism (the paper evaluates 2).
func BenchmarkAblationFrontends(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		n := n
		name := map[int]string{1: "centralized", 2: "paper_2", 4: "four"}[n]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sim.DefaultOptions()
				opt.WarmupOps, opt.MeasureOps = 50_000, 150_000
				base := ablationRun(b, core.DefaultConfig(), opt, "gcc")
				cfg := core.DefaultConfig().WithDistributedFrontend(n)
				dist := ablationRun(b, cfg, opt, "gcc")
				red := metrics.ReductionTriple(
					base.Temps.Unit(floorplan.IsROB),
					dist.Temps.Unit(floorplan.IsROB))
				b.ReportMetric(red.AbsMax*100, "rob_absmax_red_%")
				b.ReportMetric(metrics.Slowdown(base.MeasCycles, dist.MeasCycles)*100, "slowdown_%")
				b.ReportMetric(float64(dist.Stats.CrossFrontend), "xfe_copies")
			}
		})
	}
}

// BenchmarkTraceCacheAccess microbenchmarks the banked trace cache with
// the biased mapping (the structure on the critical fetch path).
func BenchmarkTraceCacheAccess(b *testing.B) {
	tc := tcache.New(tcache.Config{
		Banks: 3, TracesPerBank: 256, Ways: 4, Hopping: true, Biased: true, StaticGate: -1,
	})
	temps := []float64{70, 73, 68}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i) % 1024
		if hit, _ := tc.Access(id); !hit {
			tc.Fill(id)
		}
		if i%4096 == 0 {
			tc.Reconfigure(temps)
		}
	}
}
