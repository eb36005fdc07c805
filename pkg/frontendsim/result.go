package frontendsim

import (
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Unit names used as keys of Result.Units.
const (
	UnitProcessor  = "Processor"
	UnitFrontend   = "Frontend"
	UnitBackend    = "Backend"
	UnitUL2        = "UL2"
	UnitROB        = "ROB"
	UnitRAT        = "RAT"
	UnitTraceCache = "TraceCache"
)

// Result is the JSON-marshalable outcome of one run.  Temperature
// metrics are the paper's triples (peak, area-weighted average, average
// per-interval max), expressed as the rise over ambient in °C.
type Result struct {
	Benchmark string      `json:"benchmark"`
	Config    core.Config `json:"config"`

	IPC        float64 `json:"ipc"`
	WarmCycles uint64  `json:"warm_cycles"`
	MeasCycles uint64  `json:"meas_cycles"`
	MeasOps    uint64  `json:"meas_ops"`
	Intervals  int     `json:"intervals"`

	TCHitRate float64 `json:"tc_hit_rate"`
	TCHops    uint64  `json:"tc_hops"`

	// AmbientC is the ambient temperature the rises are relative to.
	AmbientC float64 `json:"ambient_c"`
	// Units maps unit names (UnitProcessor, UnitROB, ...) to their
	// temperature triples.
	Units map[string]metrics.Triple `json:"units"`

	// Blocks and the per-block vectors are index-aligned with the
	// floorplan of the run.
	Blocks    []string  `json:"blocks"`
	AvgPowerW []float64 `json:"avg_power_w"`
	NominalW  []float64 `json:"nominal_w"`
	PeakRiseC []float64 `json:"peak_rise_c"`

	// DTM statistics (zero unless the controller was enabled).
	DTMEngagements uint64 `json:"dtm_engagements,omitempty"`
	DTMThrottled   uint64 `json:"dtm_throttled,omitempty"`
	DTMMinDuty     int    `json:"dtm_min_duty,omitempty"`

	raw *sim.Result
	// body is the encoding a decoded Result was read from
	// (DecodeResult, DecodeResultView); the suite encoders write it
	// verbatim.  view marks a Result of which only the aggregation
	// fields were decoded.
	body []byte
	view bool
}

// Raw returns the underlying internal simulation result, including the
// full per-interval temperature series.  It is only available in-process:
// after a JSON round-trip Raw returns nil.
func (r *Result) Raw() *sim.Result { return r.raw }

// newResult converts an internal sim.Result.
func newResult(sr *sim.Result) *Result {
	isUL2 := func(n string) bool { return n == floorplan.UL2 }
	r := &Result{
		Benchmark:  sr.Bench,
		Config:     sr.Config,
		IPC:        sr.IPC(),
		WarmCycles: sr.WarmCycles,
		MeasCycles: sr.MeasCycles,
		MeasOps:    sr.MeasOps,
		Intervals:  sr.Temps.Intervals(),
		TCHitRate:  sr.TCHitRate,
		TCHops:     sr.TCHops,
		AmbientC:   sr.Temps.Ambient(),
		Units: map[string]metrics.Triple{
			UnitProcessor:  sr.Temps.Unit(nil),
			UnitFrontend:   sr.Temps.Unit(floorplan.IsFrontend),
			UnitBackend:    sr.Temps.Unit(floorplan.IsBackend),
			UnitUL2:        sr.Temps.Unit(isUL2),
			UnitROB:        sr.Temps.Unit(floorplan.IsROB),
			UnitRAT:        sr.Temps.Unit(floorplan.IsRAT),
			UnitTraceCache: sr.Temps.Unit(floorplan.IsTraceCache),
		},
		AvgPowerW:      sr.AvgPower,
		NominalW:       sr.Nominal,
		DTMEngagements: sr.DTMEngagements,
		DTMThrottled:   sr.DTMThrottled,
		DTMMinDuty:     sr.DTMMinDuty,
		raw:            sr,
	}
	names := sr.Temps.Names() // the floorplan's blocks, in index order
	r.Blocks = make([]string, len(names))
	r.PeakRiseC = make([]float64, len(names))
	for i, name := range names {
		r.Blocks[i] = name
		r.PeakRiseC[i] = sr.Temps.AbsMax(func(n string) bool { return n == name })
	}
	return r
}

// Snapshot is delivered to observers once per measured interval.
type Snapshot struct {
	Benchmark string `json:"benchmark"`
	// Interval counts from 0.
	Interval int `json:"interval"`
	// DeltaCycles/DeltaOps cover this interval; Cycles/Ops are cumulative
	// over the measured phase.  IPC is the incremental IPC of this
	// interval alone.
	DeltaCycles uint64  `json:"delta_cycles"`
	DeltaOps    uint64  `json:"delta_ops"`
	Cycles      uint64  `json:"cycles"`
	Ops         uint64  `json:"ops"`
	IPC         float64 `json:"ipc"`
	// TempsC / PowerW are per-block, index-aligned with Result.Blocks.
	TempsC []float64 `json:"temps_c"`
	PowerW []float64 `json:"power_w"`
	// Hops is the cumulative trace-cache bank-hop count.
	Hops uint64 `json:"hops"`
	// DTM state after this interval's update (DutyDen == 0: DTM off).
	DutyNum   int  `json:"duty_num,omitempty"`
	DutyDen   int  `json:"duty_den,omitempty"`
	Throttled bool `json:"throttled,omitempty"`
}

// Observer receives per-interval snapshots during a run.  OnInterval is
// called synchronously from the simulation goroutine; slow observers slow
// the run.
type Observer interface {
	OnInterval(Snapshot)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Snapshot)

// OnInterval implements Observer.
func (f ObserverFunc) OnInterval(s Snapshot) { f(s) }

// newSnapshot converts an internal interval record.
func newSnapshot(bench string, iv sim.Interval) Snapshot {
	s := Snapshot{
		Benchmark:   bench,
		Interval:    iv.Index,
		DeltaCycles: iv.DeltaCycles,
		DeltaOps:    iv.DeltaOps,
		Cycles:      iv.Cycles,
		Ops:         iv.Ops,
		TempsC:      iv.Temps,
		PowerW:      iv.Power,
		Hops:        iv.Hops,
		DutyNum:     iv.DutyNum,
		DutyDen:     iv.DutyDen,
		Throttled:   iv.Throttled,
	}
	if iv.DeltaCycles > 0 {
		s.IPC = float64(iv.DeltaOps) / float64(iv.DeltaCycles)
	}
	return s
}
