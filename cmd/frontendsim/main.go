// Command frontendsim runs a single configuration on a single benchmark
// through the public frontendsim Engine and reports pipeline, power and
// temperature results.  Ctrl-C cancels the run between thermal intervals.
//
// Usage:
//
//	frontendsim [-bench gzip] [-distributed] [-hopping] [-biased] [-blank]
//	            [-dtm] [-warmup N] [-measure N] [-intervals] [-v]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"repro/internal/experiments"
	"repro/pkg/frontendsim"
)

func main() {
	var (
		bench       = flag.String("bench", "gzip", "benchmark name (one of the 26 SPEC2000 profiles)")
		distributed = flag.Bool("distributed", false, "distributed rename and commit (2 frontends)")
		hopping     = flag.Bool("hopping", false, "trace-cache bank hopping")
		biased      = flag.Bool("biased", false, "thermal-aware biased bank mapping")
		blank       = flag.Bool("blank", false, "blank-silicon comparison configuration")
		dtmOn       = flag.Bool("dtm", false, "enable the fetch-toggling DTM controller")
		warmup      = flag.Uint64("warmup", 120_000, "warmup micro-ops (0 = paper default)")
		measure     = flag.Uint64("measure", 300_000, "measured micro-ops (0 = paper default)")
		stream      = flag.Bool("intervals", false, "stream per-interval snapshots to stderr")
		verbose     = flag.Bool("v", false, "per-block power/temperature dump")
	)
	flag.Parse()

	req := frontendsim.Request{
		Benchmark:     *bench,
		BankHopping:   *hopping,
		BiasedMapping: *biased,
		BlankSilicon:  *blank,
		DTM:           *dtmOn,
		WarmupOps:     *warmup,
		MeasureOps:    *measure,
	}
	if *distributed {
		req.Frontends = 2
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := frontendsim.New()
	var observers []frontendsim.Observer
	if *stream {
		observers = append(observers, frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			peak := 0.0
			for _, t := range s.TempsC {
				if t > peak {
					peak = t
				}
			}
			fmt.Fprintf(os.Stderr, "interval %3d: %7d cycles, IPC %5.3f, peak %6.1f°C, hops %d\n",
				s.Interval, s.DeltaCycles, s.IPC, peak, s.Hops)
		}))
	}
	r, err := eng.RunObserved(ctx, req, observers...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "run cancelled")
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
	cfg := r.Config

	fmt.Printf("benchmark      %s\n", r.Benchmark)
	fmt.Printf("configuration  frontends=%d tcBanks=%d hopping=%v biased=%v staticGate=%d\n",
		cfg.Frontends, cfg.TC.Banks, cfg.TC.Hopping, cfg.TC.Biased, cfg.TC.StaticGate)
	fmt.Printf("measured       %d µops in %d cycles (IPC %.3f)\n", r.MeasOps, r.MeasCycles, r.IPC)
	fmt.Printf("trace cache    hit rate %.4f, hops %d\n", r.TCHitRate, r.TCHops)
	raw := r.Raw()
	fmt.Printf("mispredicts    %d, copies %d (cross-frontend %d)\n",
		raw.Stats.Mispredicts, raw.Stats.Copies, raw.Stats.CrossFrontend)
	if *verbose {
		fmt.Printf("event queue    %d pushes, %d pops, %d store wakeups, %d polls avoided\n",
			raw.Stats.EventPushes, raw.Stats.EventPops,
			raw.Stats.StoreWakeups, raw.Stats.StorePollsAvoided)
		fmt.Printf("issue select   %d ready evaluations\n", raw.Stats.ReadyEvals)
	}
	if *dtmOn {
		fmt.Printf("dtm            %d engagements, %d throttled intervals, min duty %d\n",
			r.DTMEngagements, r.DTMThrottled, r.DTMMinDuty)
	}

	units := []string{
		frontendsim.UnitProcessor,
		frontendsim.UnitFrontend,
		frontendsim.UnitBackend,
		frontendsim.UnitUL2,
		frontendsim.UnitROB,
		frontendsim.UnitRAT,
		frontendsim.UnitTraceCache,
	}
	fmt.Printf("\n%-11s %8s %8s %8s   (rise over %.0f°C ambient)\n",
		"unit", "AbsMax", "Average", "AvgMax", r.AmbientC)
	for _, u := range units {
		tr := r.Units[u]
		fmt.Printf("%-11s %8.1f %8.1f %8.1f\n", u, tr.AbsMax, tr.Average, tr.AvgMax)
	}

	if *verbose {
		experiments.Banner(os.Stdout, "per-block detail")
		type row struct {
			name  string
			power float64
			peak  float64
		}
		var rows []row
		for i, name := range r.Blocks {
			rows = append(rows, row{name, r.AvgPowerW[i], r.PeakRiseC[i]})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].peak > rows[j].peak })
		for _, rw := range rows {
			fmt.Printf("%-9s %7.2f W   peak rise %6.1f\n", rw.name, rw.power, rw.peak)
		}
	}
}
