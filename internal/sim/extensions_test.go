package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/workload"
)

func TestDTMThrottlesHotRuns(t *testing.T) {
	// With an artificially low trigger, the controller must engage,
	// reduce the peak temperature, and cost performance — the emergency
	// behaviour the paper's techniques aim to avoid.
	prof, _ := workload.ByName("gzip")
	opt := quick()
	base := run(t, core.DefaultConfig(), prof, opt)

	cfg := dtm.DefaultConfig()
	cfg.TriggerC = base.Temps.AbsMax(nil) + base.Temps.Ambient() - 10 // well below the observed peak
	cfg.ReleaseC = cfg.TriggerC - 4
	optDTM := opt
	optDTM.DTM = &cfg
	dtmRes := run(t, core.DefaultConfig(), prof, optDTM)

	if dtmRes.DTMEngagements == 0 {
		t.Fatal("controller never engaged below-peak trigger")
	}
	if dtmRes.DTMMinDuty >= 8 {
		t.Fatal("duty cycle never reduced")
	}
	if dtmRes.Temps.AbsMax(nil) >= base.Temps.AbsMax(nil) {
		t.Errorf("DTM did not reduce the peak: %.1f vs %.1f",
			dtmRes.Temps.AbsMax(nil), base.Temps.AbsMax(nil))
	}
	if dtmRes.MeasCycles <= base.MeasCycles {
		t.Errorf("throttling was free: %d vs %d cycles", dtmRes.MeasCycles, base.MeasCycles)
	}
}

func TestDTMIdleWhenCool(t *testing.T) {
	// With the paper's real 381 K trigger, a calibrated run never
	// reaches an emergency and the controller must stay out of the way.
	prof, _ := workload.ByName("eon")
	opt := quick()
	cfg := dtm.DefaultConfig()
	opt.DTM = &cfg
	r := run(t, core.DefaultConfig(), prof, opt)
	if r.DTMEngagements != 0 {
		t.Errorf("controller engaged %d times below the emergency limit", r.DTMEngagements)
	}
}

func TestBranchPredictorIntegration(t *testing.T) {
	// With the gshare predictor enabled, mispredictions come from real
	// prediction errors; the rate must be plausible (the synthetic
	// streams have partly random outcomes) and the run must complete.
	prof, _ := workload.ByName("vpr")
	cfg := core.DefaultConfig()
	cfg.UseBranchPredictor = true
	r := run(t, cfg, prof, quick())
	if r.MeasOps == 0 {
		t.Fatal("predictor run did not measure")
	}
	if r.Stats.Mispredicts == 0 {
		t.Error("gshare predicted a partly-random stream perfectly")
	}
}

func TestBranchPredictorVsProfileRates(t *testing.T) {
	// Both misprediction sources must yield the same order of magnitude
	// of redirects — the profile rates are calibrated stand-ins.
	prof, _ := workload.ByName("gzip")
	base := run(t, core.DefaultConfig(), prof, quick())
	cfg := core.DefaultConfig()
	cfg.UseBranchPredictor = true
	pred := run(t, cfg, prof, quick())
	lo, hi := base.Stats.Mispredicts/8, base.Stats.Mispredicts*8
	if pred.Stats.Mispredicts < lo || pred.Stats.Mispredicts > hi {
		t.Errorf("predictor mispredicts %d wildly off profile-rate %d",
			pred.Stats.Mispredicts, base.Stats.Mispredicts)
	}
}
