package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/workload"
)

// quick returns short options used by the tests.
func quick() Options {
	o := DefaultOptions()
	o.WarmupOps = 40_000
	o.MeasureOps = 100_000
	return o
}

// run is RunHooked with no hook, which never aborts.
func run(t *testing.T, cfg core.Config, prof workload.Profile, opt Options) *Result {
	t.Helper()
	res, err := RunHooked(cfg, prof, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runQuick(t *testing.T, cfg core.Config, bench string) *Result {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	return run(t, cfg, prof, quick())
}

func TestRunProducesIntervals(t *testing.T) {
	r := runQuick(t, core.DefaultConfig(), "gzip")
	if r.Temps.Intervals() < 2 {
		t.Fatalf("only %d intervals recorded", r.Temps.Intervals())
	}
	if r.MeasCycles == 0 || r.MeasOps == 0 {
		t.Fatal("measured phase empty")
	}
	if r.IPC() <= 0 || r.IPC() > 8 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.WarmCycles == 0 {
		t.Fatal("no warmup cycles")
	}
}

func TestTemperaturesPhysical(t *testing.T) {
	r := runQuick(t, core.DefaultConfig(), "gzip")
	for i := 0; i < r.Temps.Intervals(); i++ {
		for b, temp := range r.Temps.PerInterval(i) {
			if temp < r.Temps.Ambient()-1 || temp > 160 {
				t.Fatalf("block %s interval %d at %v°C", r.Temps.Names()[b], i, temp)
			}
		}
	}
}

func TestWarmStartNotCold(t *testing.T) {
	// The paper warm-starts at steady state: the first measured interval
	// must already be well above ambient.
	r := runQuick(t, core.DefaultConfig(), "gzip")
	first := r.Temps.PerInterval(0)
	max := 0.0
	for _, temp := range first {
		if temp > max {
			max = temp
		}
	}
	if max < r.Temps.Ambient()+10 {
		t.Fatalf("first interval peak %v°C: thermal model started cold", max)
	}
}

func TestFrontendIsHot(t *testing.T) {
	// Figure 1: the frontend exhibits some of the highest temperatures;
	// the UL2 is the coolest unit.
	r := runQuick(t, core.DefaultConfig(), "gzip")
	fe := r.Temps.AbsMax(floorplan.IsFrontend)
	proc := r.Temps.AbsMax(nil)
	ul2 := r.Temps.AbsMax(func(n string) bool { return n == floorplan.UL2 })
	if fe < proc*0.95 {
		t.Errorf("frontend peak %v not among the highest (processor %v)", fe, proc)
	}
	if ul2 >= fe {
		t.Errorf("UL2 (%v) hotter than frontend (%v)", ul2, fe)
	}
	if ul2 >= r.Temps.AbsMax(floorplan.IsBackend) {
		t.Errorf("UL2 (%v) hotter than backend", ul2)
	}
}

func TestNominalPowerPositive(t *testing.T) {
	r := runQuick(t, core.DefaultConfig(), "gzip")
	for i, w := range r.Nominal {
		if w <= 0 {
			t.Errorf("nominal power of %s = %v", r.Floorplan().Blocks[i].Name, w)
		}
	}
	for i, w := range r.AvgPower {
		if w < 0 || math.IsNaN(w) {
			t.Errorf("avg power of %s = %v", r.Floorplan().Blocks[i].Name, w)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := runQuick(t, core.DefaultConfig(), "vpr")
	b := runQuick(t, core.DefaultConfig(), "vpr")
	if a.MeasCycles != b.MeasCycles || a.Stats != b.Stats {
		t.Fatal("simulation not deterministic")
	}
	for i := 0; i < a.Temps.Intervals(); i++ {
		ta, tb := a.Temps.PerInterval(i), b.Temps.PerInterval(i)
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("temperatures diverge at interval %d block %d", i, j)
			}
		}
	}
}

func TestHoppingRotatesDuringRun(t *testing.T) {
	r := runQuick(t, core.DefaultConfig().WithBankHopping(), "gzip")
	if r.TCHops < 3 {
		t.Fatalf("only %d hops over the run", r.TCHops)
	}
	// §4.2: the hit ratio loss from hopping is small.
	base := runQuick(t, core.DefaultConfig(), "gzip")
	if loss := base.TCHitRate - r.TCHitRate; loss > 0.05 {
		t.Errorf("hopping hit-rate loss %.3f too large", loss)
	}
}

func TestDistributedReducesROBAndRAT(t *testing.T) {
	// The headline §4.1 result, at test scale: both the reorder buffer
	// and rename table rises drop by a double-digit percentage.
	base := runQuick(t, core.DefaultConfig(), "gzip")
	dist := runQuick(t, core.DefaultConfig().WithDistributedFrontend(2), "gzip")
	for _, u := range []struct {
		name   string
		filter func(string) bool
	}{{"ROB", floorplan.IsROB}, {"RAT", floorplan.IsRAT}} {
		b := base.Temps.AbsMax(u.filter)
		d := dist.Temps.AbsMax(u.filter)
		red := (b - d) / b
		if red < 0.10 {
			t.Errorf("%s peak reduction %.1f%%, want >10%% (paper: >30%%)", u.name, red*100)
		}
	}
}

func TestHoppingReducesTCAverage(t *testing.T) {
	base := runQuick(t, core.DefaultConfig(), "gzip")
	hop := runQuick(t, core.DefaultConfig().WithBankHopping(), "gzip")
	b := base.Temps.Average(floorplan.IsTraceCache)
	h := hop.Temps.Average(floorplan.IsTraceCache)
	if red := (b - h) / b; red < 0.05 {
		t.Errorf("hopping TC average reduction %.1f%%, want >5%% (paper: 17%%)", red*100)
	}
}

func TestGatedBankCools(t *testing.T) {
	// With hopping, the coolest bank in any interval should be well below
	// the hottest (one bank is always off).
	r := runQuick(t, core.DefaultConfig().WithBankHopping(), "gzip")
	last := r.Temps.PerInterval(r.Temps.Intervals() - 1)
	var bankTemps []float64
	for b := 0; b < 3; b++ {
		if i := r.Floorplan().Index(floorplan.TCBank(b)); i >= 0 {
			bankTemps = append(bankTemps, last[i])
		}
	}
	min, max := bankTemps[0], bankTemps[0]
	for _, v := range bankTemps {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 1 {
		t.Errorf("bank temperatures all within %v°C; gating has no effect", max-min)
	}
}

func TestShortBenchmarkSliceRespected(t *testing.T) {
	// fma3d runs 30/200 of the standard slice; the run must still produce
	// a valid (shorter) measurement.
	prof, _ := workload.ByName("fma3d")
	r := run(t, core.DefaultConfig(), prof, quick())
	if r.MeasOps == 0 {
		t.Fatal("no measured ops for short-slice benchmark")
	}
	full := uint64(float64(40_000+100_000) * 30 / 200)
	if r.Stats.Committed != full {
		t.Fatalf("committed %d, want %d", r.Stats.Committed, full)
	}
}

func TestZeroOptionsUseDefaults(t *testing.T) {
	prof, _ := workload.ByName("eon")
	prof.LengthScale = 0.05 // keep it quick
	r := run(t, core.DefaultConfig(), prof, Options{})
	if r.Temps.Intervals() == 0 {
		t.Fatal("defaulted options produced no intervals")
	}
}

// TestFigure14CombinedMesa runs Figure 14's combined configuration on
// mesa at the default lengths.  It once deadlocked at cycle ~1.05M,
// when the planner let two copies from one donor into a CopyQueue
// with one free slot and the second was dropped.
func TestFigure14CombinedMesa(t *testing.T) {
	prof, ok := workload.ByName("mesa")
	if !ok {
		t.Fatal("unknown benchmark mesa")
	}
	cfg := core.DefaultConfig().WithDistributedFrontend(2).WithBankHopping().WithBiasedMapping()
	r := run(t, cfg, prof, DefaultOptions())
	if r.MeasOps == 0 || r.IPC() <= 0 {
		t.Fatalf("measured phase empty: %d ops, IPC %v", r.MeasOps, r.IPC())
	}
}

// TestFloorplanSharedNotHandedOut checks that runs of one geometry share
// one floorplan, and that a caller editing the floorplan a Result hands
// out changes neither the shared one nor another run's.
func TestFloorplanSharedNotHandedOut(t *testing.T) {
	a := runQuick(t, core.DefaultConfig(), "gzip")
	b := runQuick(t, core.DefaultConfig(), "vpr")
	if a.fp != b.fp {
		t.Fatal("two runs of one geometry built separate floorplans")
	}
	if c := runQuick(t, core.DefaultConfig().WithBankHopping(), "gzip"); c.fp == a.fp {
		t.Fatal("runs of different geometries share a floorplan")
	}
	fp := a.Floorplan()
	name := fp.Blocks[0].Name
	fp.Blocks[0].Name = "edited"
	fp.Blocks[0].W *= 2
	if got := b.Floorplan().Blocks[0]; got.Name != name || got.W == fp.Blocks[0].W {
		t.Errorf("editing one result's floorplan changed another's: %+v", got)
	}
	if a.fp.Index(name) != 0 || a.fp.Index("edited") != -1 {
		t.Error("editing a result's floorplan changed the shared one")
	}
}
