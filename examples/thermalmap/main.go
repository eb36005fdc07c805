// Thermal map: traces per-interval temperatures of the frontend hot
// blocks over a run, showing the dynamics behind the paper's AvgMax
// metric — bursts heat the rename table and trace-cache banks between
// reconfiguration intervals, and bank hopping visibly saw-tooths the
// bank temperatures.  Runs go through the public Engine API; the
// per-interval series comes from the in-process Raw() result.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/pkg/frontendsim"
)

func spark(vals []float64, lo, hi float64) string {
	marks := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range vals {
		f := (v - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		sb.WriteRune(marks[int(f*float64(len(marks)-1))])
	}
	return sb.String()
}

func trace(r *sim.Result, name string) []float64 {
	i := r.Floorplan().Index(name)
	if i < 0 {
		return nil
	}
	out := make([]float64, 0, r.Temps.Intervals())
	for s := 0; s < r.Temps.Intervals(); s++ {
		out = append(out, r.Temps.PerInterval(s)[i]-r.Temps.Ambient())
	}
	return out
}

func main() {
	eng := frontendsim.New(
		frontendsim.WithWarmupOps(80_000),
		frontendsim.WithMeasureOps(400_000),
	)
	for _, c := range []struct {
		name string
		req  frontendsim.Request
	}{
		{"baseline", frontendsim.Request{Benchmark: "crafty"}},
		{"hopping+biasing", frontendsim.Request{Benchmark: "crafty", BankHopping: true, BiasedMapping: true}},
	} {
		res, err := eng.Run(context.Background(), c.req)
		if err != nil {
			log.Fatal(err)
		}
		r := res.Raw()
		fmt.Printf("%s on %s: %d intervals\n", c.name, res.Benchmark, res.Intervals)
		blocks := []string{floorplan.RAT, floorplan.ROB}
		for b := 0; b < res.Config.TC.Banks; b++ {
			blocks = append(blocks, floorplan.TCBank(b))
		}
		for _, bl := range blocks {
			if r.Floorplan().Index(bl) < 0 {
				continue
			}
			vals := trace(r, bl)
			only := func(n string) bool { return n == bl }
			fmt.Printf("  %-5s rise %5.1f..%5.1f  %s\n", bl,
				minOf(vals), r.Temps.AbsMax(only), spark(vals, 0, 60))
		}
		tc := res.Units[frontendsim.UnitTraceCache]
		fmt.Printf("  trace cache: AbsMax %.1f  Average %.1f  AvgMax %.1f  (metrics of §4)\n\n",
			tc.AbsMax, tc.Average, tc.AvgMax)
	}
	fmt.Println("The gated bank cools while the enabled banks serve accesses; every")
	fmt.Println("interval the gate rotates (§3.2.1) and the mapping table is re-biased")
	fmt.Println("from the bank sensors (§3.2.2).")
}

func minOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals {
		if v < m {
			m = v
		}
	}
	return m
}
