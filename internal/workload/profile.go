// Package workload synthesizes deterministic micro-op streams that stand in
// for the 26 SPEC2000 IA32 traces used by the paper.
//
// SPEC binaries and the authors' trace slices cannot be redistributed, so
// each benchmark is replaced by a profile capturing the properties the
// paper's results actually depend on: instruction mix (which blocks see
// activity), dependency distances (ILP, hence IPC and burst behaviour),
// trace-cache working-set size and skew (trace-cache hit rate and bank
// imbalance), data working-set size (DL1/UL2 miss rates), branch
// mispredictions (frontend stalls), and phase behaviour (short-term access
// bursts, which motivate the thermal-aware mapping function in §3.2.2).
//
// Everything is generated from a per-benchmark seed with the fixed PRNG in
// package rng, so runs are exactly reproducible.
package workload

import "slices"

// Profile describes a synthetic benchmark.  See the package comment for
// the mapping between fields and the behaviours they reproduce.
type Profile struct {
	Name string
	Seed uint64

	// Instruction mix.  Fractions must sum to <= 1; the remainder is
	// IntALU.  Branch micro-ops additionally terminate traces.
	FracIntMul float64
	FracIntDiv float64
	FracFPAdd  float64
	FracFPMul  float64
	FracFPDiv  float64
	FracLoad   float64
	FracStore  float64
	FracBranch float64

	// DepDistMean is the mean register dependency distance in micro-ops.
	// Small values serialize execution (low IPC); large values expose ILP.
	DepDistMean float64

	// Trace-cache behaviour.  The hot phase draws traces Zipf-skewed from
	// a working set of HotTraces distinct traces; the cold phase draws
	// from ColdTraces.  PhaseLen is the phase length in micro-ops and
	// HotFrac the fraction of phases that are hot.  Phase alternation
	// produces the short-term access bursts discussed in §3.2.2.
	HotTraces  int
	ColdTraces int
	PhaseLen   int
	HotFrac    float64
	TraceTheta float64 // skew of trace selection inside a phase

	// Data memory behaviour.  DataWS is the data working set in bytes;
	// StrideFrac is the fraction of memory references that walk arrays
	// sequentially.  Of the remaining references, HotDataFrac hit a small
	// hot region of HotDataB bytes (temporal locality) and the rest are
	// spread over the full working set.
	DataWS      uint64
	StrideFrac  float64
	HotDataFrac float64
	HotDataB    uint64

	// MispredRate is the probability that a branch micro-op was
	// mispredicted; the pipeline is redirected when it executes.
	MispredRate float64

	// LengthScale scales the benchmark's run length relative to the
	// standard slice (1.0 = full slice).  The paper ran 200M-instruction
	// slices for all but five applications (§4); those keep their
	// published shorter fractions.
	LengthScale float64
}

// defaults fills zero-valued fields with sane values so profile literals
// stay short.
func (p Profile) defaults() Profile {
	if p.DepDistMean == 0 {
		p.DepDistMean = 6
	}
	if p.HotTraces == 0 {
		p.HotTraces = 96
	}
	if p.ColdTraces == 0 {
		p.ColdTraces = 1024
	}
	if p.PhaseLen == 0 {
		p.PhaseLen = 40000
	}
	if p.HotFrac == 0 {
		p.HotFrac = 0.7
	}
	if p.TraceTheta == 0 {
		p.TraceTheta = 0.8
	}
	if p.DataWS == 0 {
		p.DataWS = 1 << 20
	}
	if p.StrideFrac == 0 {
		p.StrideFrac = 0.5
	}
	if p.HotDataFrac == 0 {
		p.HotDataFrac = 0.75
	}
	if p.HotDataB == 0 {
		p.HotDataB = 8 << 10
	}
	if p.HotDataB > p.DataWS {
		p.HotDataB = p.DataWS
	}
	if p.MispredRate == 0 {
		p.MispredRate = 0.03
	}
	if p.LengthScale == 0 {
		p.LengthScale = 1.0
	}
	return p
}

// SPEC2000 returns profiles for the 26 SPEC2000 applications the paper
// evaluates (12 SPECint + 14 SPECfp as run by the authors).  Parameters
// are hand-assigned from the well-known characters of these benchmarks:
// e.g. mcf and art are memory bound, gcc has a large instruction footprint,
// swim/mgrid are regular FP array codes with long streams.
//
// The five applications whose traces were shorter than 200M instructions
// (eon, fma3d, mcf, perlbmk, swim) keep the paper's relative lengths via
// LengthScale (127/200, 30/200, 156/200, 58/200, 112/200).
func SPEC2000() []Profile { return slices.Clone(spec2000) }

// spec2000 is the defaulted profile table SPEC2000, ByName and Names
// read, built once.
var spec2000 = buildSPEC2000()

func buildSPEC2000() []Profile {
	ps := []Profile{
		// ---- SPECint ----
		{Name: "gzip", Seed: 1001, FracLoad: 0.24, FracStore: 0.12, FracBranch: 0.14,
			DepDistMean: 5, HotTraces: 48, ColdTraces: 300, DataWS: 2 << 20, StrideFrac: 0.7, MispredRate: 0.035},
		{Name: "vpr", Seed: 1002, FracLoad: 0.28, FracStore: 0.10, FracBranch: 0.13, FracFPAdd: 0.04, FracFPMul: 0.03,
			DepDistMean: 4, HotTraces: 120, ColdTraces: 900, DataWS: 4 << 20, StrideFrac: 0.3, MispredRate: 0.06},
		{Name: "gcc", Seed: 1003, FracLoad: 0.26, FracStore: 0.14, FracBranch: 0.17,
			DepDistMean: 4, HotTraces: 400, ColdTraces: 4000, PhaseLen: 25000, HotFrac: 0.45,
			DataWS: 8 << 20, StrideFrac: 0.25, MispredRate: 0.05},
		{Name: "mcf", Seed: 1004, FracLoad: 0.34, FracStore: 0.09, FracBranch: 0.16,
			DepDistMean: 3, HotTraces: 32, ColdTraces: 200, DataWS: 64 << 20, StrideFrac: 0.1,
			MispredRate: 0.07, LengthScale: 156.0 / 200},
		{Name: "crafty", Seed: 1005, FracLoad: 0.27, FracStore: 0.08, FracBranch: 0.12, FracIntMul: 0.01,
			DepDistMean: 6, HotTraces: 160, ColdTraces: 1200, DataWS: 2 << 20, StrideFrac: 0.4, MispredRate: 0.055},
		{Name: "parser", Seed: 1006, FracLoad: 0.26, FracStore: 0.11, FracBranch: 0.15,
			DepDistMean: 4, HotTraces: 140, ColdTraces: 1100, DataWS: 16 << 20, StrideFrac: 0.2, MispredRate: 0.055},
		{Name: "eon", Seed: 1007, FracLoad: 0.28, FracStore: 0.15, FracBranch: 0.10, FracFPAdd: 0.08, FracFPMul: 0.06,
			DepDistMean: 6, HotTraces: 100, ColdTraces: 700, DataWS: 1 << 20, StrideFrac: 0.6,
			MispredRate: 0.02, LengthScale: 127.0 / 200},
		{Name: "perlbmk", Seed: 1008, FracLoad: 0.27, FracStore: 0.14, FracBranch: 0.15,
			DepDistMean: 5, HotTraces: 220, ColdTraces: 2200, DataWS: 4 << 20, StrideFrac: 0.35,
			MispredRate: 0.04, LengthScale: 58.0 / 200},
		{Name: "gap", Seed: 1009, FracLoad: 0.25, FracStore: 0.12, FracBranch: 0.13, FracIntMul: 0.02,
			DepDistMean: 5, HotTraces: 130, ColdTraces: 1000, DataWS: 24 << 20, StrideFrac: 0.45, MispredRate: 0.04},
		{Name: "vortex", Seed: 1010, FracLoad: 0.29, FracStore: 0.16, FracBranch: 0.14,
			DepDistMean: 6, HotTraces: 260, ColdTraces: 2600, DataWS: 16 << 20, StrideFrac: 0.4, MispredRate: 0.025},
		{Name: "bzip2", Seed: 1011, FracLoad: 0.25, FracStore: 0.11, FracBranch: 0.13,
			DepDistMean: 5, HotTraces: 56, ColdTraces: 360, DataWS: 8 << 20, StrideFrac: 0.6, MispredRate: 0.05},
		{Name: "twolf", Seed: 1012, FracLoad: 0.27, FracStore: 0.09, FracBranch: 0.14, FracFPAdd: 0.03, FracFPMul: 0.02,
			DepDistMean: 4, HotTraces: 110, ColdTraces: 800, DataWS: 2 << 20, StrideFrac: 0.25, MispredRate: 0.065},
		// ---- SPECfp ----
		{Name: "wupwise", Seed: 2001, FracLoad: 0.24, FracStore: 0.11, FracBranch: 0.05,
			FracFPAdd: 0.16, FracFPMul: 0.17, DepDistMean: 9, HotTraces: 40, ColdTraces: 220,
			DataWS: 32 << 20, StrideFrac: 0.8, MispredRate: 0.008},
		{Name: "swim", Seed: 2002, FracLoad: 0.28, FracStore: 0.13, FracBranch: 0.03,
			FracFPAdd: 0.21, FracFPMul: 0.16, DepDistMean: 12, HotTraces: 24, ColdTraces: 120,
			DataWS: 96 << 20, StrideFrac: 0.95, MispredRate: 0.004, LengthScale: 112.0 / 200},
		{Name: "mgrid", Seed: 2003, FracLoad: 0.31, FracStore: 0.08, FracBranch: 0.03,
			FracFPAdd: 0.24, FracFPMul: 0.17, DepDistMean: 11, HotTraces: 28, ColdTraces: 140,
			DataWS: 56 << 20, StrideFrac: 0.9, MispredRate: 0.004},
		{Name: "applu", Seed: 2004, FracLoad: 0.27, FracStore: 0.10, FracBranch: 0.04,
			FracFPAdd: 0.19, FracFPMul: 0.16, FracFPDiv: 0.01, DepDistMean: 10, HotTraces: 44, ColdTraces: 260,
			DataWS: 64 << 20, StrideFrac: 0.85, MispredRate: 0.006},
		{Name: "mesa", Seed: 2005, FracLoad: 0.26, FracStore: 0.13, FracBranch: 0.09,
			FracFPAdd: 0.11, FracFPMul: 0.10, DepDistMean: 7, HotTraces: 120, ColdTraces: 900,
			DataWS: 4 << 20, StrideFrac: 0.6, MispredRate: 0.02},
		{Name: "galgel", Seed: 2006, FracLoad: 0.29, FracStore: 0.08, FracBranch: 0.05,
			FracFPAdd: 0.20, FracFPMul: 0.18, DepDistMean: 10, HotTraces: 36, ColdTraces: 200,
			DataWS: 12 << 20, StrideFrac: 0.75, MispredRate: 0.01},
		{Name: "art", Seed: 2007, FracLoad: 0.32, FracStore: 0.07, FracBranch: 0.08,
			FracFPAdd: 0.18, FracFPMul: 0.14, DepDistMean: 6, HotTraces: 20, ColdTraces: 90,
			DataWS: 48 << 20, StrideFrac: 0.3, MispredRate: 0.012},
		{Name: "equake", Seed: 2008, FracLoad: 0.31, FracStore: 0.09, FracBranch: 0.06,
			FracFPAdd: 0.17, FracFPMul: 0.15, FracFPDiv: 0.005, DepDistMean: 8, HotTraces: 48, ColdTraces: 280,
			DataWS: 40 << 20, StrideFrac: 0.55, MispredRate: 0.01},
		{Name: "facerec", Seed: 2009, FracLoad: 0.27, FracStore: 0.09, FracBranch: 0.05,
			FracFPAdd: 0.19, FracFPMul: 0.17, DepDistMean: 9, HotTraces: 52, ColdTraces: 320,
			DataWS: 24 << 20, StrideFrac: 0.7, MispredRate: 0.009},
		{Name: "ammp", Seed: 2010, FracLoad: 0.28, FracStore: 0.10, FracBranch: 0.07,
			FracFPAdd: 0.17, FracFPMul: 0.14, FracFPDiv: 0.01, DepDistMean: 7, HotTraces: 64, ColdTraces: 400,
			DataWS: 28 << 20, StrideFrac: 0.45, MispredRate: 0.012},
		{Name: "lucas", Seed: 2011, FracLoad: 0.25, FracStore: 0.11, FracBranch: 0.03,
			FracFPAdd: 0.22, FracFPMul: 0.20, DepDistMean: 12, HotTraces: 20, ColdTraces: 100,
			DataWS: 64 << 20, StrideFrac: 0.9, MispredRate: 0.003},
		{Name: "fma3d", Seed: 2012, FracLoad: 0.27, FracStore: 0.12, FracBranch: 0.06,
			FracFPAdd: 0.18, FracFPMul: 0.15, DepDistMean: 8, HotTraces: 180, ColdTraces: 1400,
			DataWS: 48 << 20, StrideFrac: 0.6, MispredRate: 0.01, LengthScale: 30.0 / 200},
		{Name: "sixtrack", Seed: 2013, FracLoad: 0.24, FracStore: 0.09, FracBranch: 0.05,
			FracFPAdd: 0.21, FracFPMul: 0.19, FracFPDiv: 0.008, DepDistMean: 9, HotTraces: 90, ColdTraces: 600,
			DataWS: 8 << 20, StrideFrac: 0.75, MispredRate: 0.007},
		{Name: "apsi", Seed: 2014, FracLoad: 0.26, FracStore: 0.10, FracBranch: 0.06,
			FracFPAdd: 0.18, FracFPMul: 0.16, FracFPDiv: 0.005, DepDistMean: 8, HotTraces: 70, ColdTraces: 440,
			DataWS: 32 << 20, StrideFrac: 0.65, MispredRate: 0.009},
	}
	for i := range ps {
		ps[i] = ps[i].defaults()
	}
	return ps
}

// ByName returns the SPEC2000 profile with the given name, or false if no
// such benchmark exists.
func ByName(name string) (Profile, bool) {
	for _, p := range spec2000 {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names returns the benchmark names in suite order.
func Names() []string {
	names := make([]string, len(spec2000))
	for i, p := range spec2000 {
		names[i] = p.Name
	}
	return names
}

// LengthScaleOrOne returns the slice-length scale, defaulting to 1 when
// unset (profile literals not passed through defaults).
func (p Profile) LengthScaleOrOne() float64 {
	if p.LengthScale <= 0 {
		return 1
	}
	return p.LengthScale
}
