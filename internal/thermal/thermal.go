// Package thermal implements the dynamic compact thermal model of §2.1 of
// the paper: an RC network exploiting the duality between heat transfer
// and electrical phenomena, in the style of Skadron et al.'s HotSpot.
//
// Every floorplan block is one silicon node with
//
//   - a thermal capacitance proportional to its area (die thickness is
//     folded into the per-area constant),
//   - a vertical conductance to the heat spreader (through the silicon
//     bulk and the thermal interface material), and
//   - lateral conductances to each adjacent block, proportional to the
//     shared edge length and inversely proportional to the center
//     distance.
//
// The copper heat spreader and the heat sink of §4 (3.1x3.1x0.23 cm
// spreader, 7x8.3x4.11 cm sink) are single lumped nodes; the sink
// convects to ambient air at a fixed temperature.  Their capacitances are
// orders of magnitude larger than the blocks', which is why the paper
// warm-starts simulations at the steady state: package time constants are
// seconds while program intervals are milliseconds.
//
// That warm start iterates leakage against SteadyState, up to 40 dense
// solves of the (blocks+2)-node system per run.  Everything in the
// solve but the power column depends only on the floorplan and Params,
// so the Gaussian elimination is recorded once per distinct conductance
// matrix, in a bounded process-wide table keyed on the matrix contents,
// and every later solve replays it on the power column in O(n²) instead
// of O(n³).  The replay performs the same floating-point operations in
// the same order as a full elimination, so its temperatures are
// bit-identical to one (TestSteadyStateReplayMatchesElimination keeps
// the full elimination as the oracle).
package thermal

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// Params are the physical constants of the RC network.  DefaultParams
// provides values calibrated for the paper's 65 nm / 10 GHz design point;
// they reproduce the Figure 1 temperature landscape (frontend ≈ 62°C rise
// peak, ≈ 25°C average) at the power model's nominal activity.
type Params struct {
	Ambient float64 // °C (paper: 45°C inside-box temperature)

	// Per-block silicon constants.
	CapPerMM2  float64 // J/K per mm² of block area
	VertRAreaK float64 // vertical resistance·area, K·mm²/W (bulk + TIM)
	LatK       float64 // lateral conductance scale, W/K per (mm shared / mm dist)

	// Package.
	SpreaderC    float64 // J/K
	SpreaderR    float64 // K/W spreader→sink
	SinkC        float64 // J/K
	SinkR        float64 // K/W sink→ambient (convection)
	EmergencyCap float64 // °C; steady-state solutions are capped here (381 K)
}

// DefaultParams returns the calibrated constants.
func DefaultParams() Params {
	return Params{
		Ambient:      45,
		CapPerMM2:    2.0e-4,
		VertRAreaK:   17.0,
		LatK:         0.08,
		SpreaderC:    7.5,
		SpreaderR:    0.04,
		SinkC:        500,
		SinkR:        0.07,
		EmergencyCap: 108, // 381 K
	}
}

// Model is the RC network for one floorplan.
type Model struct {
	fp     *floorplan.Floorplan
	p      Params
	n      int // number of block nodes; node n = spreader, n+1 = sink
	caps   []float64
	gVert  []float64 // block → spreader
	adj    []floorplan.Adjacency
	gLat   []float64 // conductance per adjacency
	temps  []float64 // length n+2
	minTau float64

	// Persistent scratch so the per-interval entry points allocate
	// nothing: the Step derivative vector and the steady-state solution
	// vector.  The steady-state elimination depends only on the
	// conductance matrix, so it is recorded once per matrix and shared
	// (ss); a solve replays it on ssX.
	dTdt []float64
	ss   *solver
	ssX  []float64
}

// New builds the thermal model, with all nodes at ambient.
func New(fp *floorplan.Floorplan, p Params) *Model {
	n := len(fp.Blocks)
	m := &Model{fp: fp, p: p, n: n}
	m.caps = make([]float64, n+2)
	m.gVert = make([]float64, n)
	for i, b := range fp.Blocks {
		m.caps[i] = p.CapPerMM2 * b.Area()
		m.gVert[i] = b.Area() / p.VertRAreaK
	}
	m.caps[n] = p.SpreaderC
	m.caps[n+1] = p.SinkC
	m.adj = fp.Adjacencies()
	m.gLat = make([]float64, len(m.adj))
	for i, a := range m.adj {
		d := a.Dist
		if d < 0.1 {
			d = 0.1
		}
		m.gLat[i] = p.LatK * a.Shared / d
	}
	m.temps = make([]float64, n+2)
	for i := range m.temps {
		m.temps[i] = p.Ambient
	}
	// Stability bound for explicit integration: tau = C / G_total.
	m.minTau = math.Inf(1)
	gTot := make([]float64, n+2)
	for i := 0; i < n; i++ {
		gTot[i] += m.gVert[i]
		gTot[n] += m.gVert[i]
	}
	for i, a := range m.adj {
		gTot[a.A] += m.gLat[i]
		gTot[a.B] += m.gLat[i]
	}
	gTot[n] += 1 / p.SpreaderR
	gTot[n+1] += 1/p.SpreaderR + 1/p.SinkR
	for i := range gTot {
		if gTot[i] > 0 {
			if tau := m.caps[i] / gTot[i]; tau < m.minTau {
				m.minTau = tau
			}
		}
	}
	m.dTdt = make([]float64, n+2)
	m.ss = solvers.get(m.steadyBase(), n+2)
	m.ssX = make([]float64, n+2)
	return m
}

// steadyBase assembles the geometry-dependent steady-state system
// G·T = P as a flat (n+2) x (n+3) augmented matrix: every conductance
// entry and the constant ambient term of the sink row.  Per-block powers
// are the only per-solve inputs.
func (m *Model) steadyBase() []float64 {
	n := m.n
	size := n + 2
	stride := size + 1
	a := make([]float64, size*stride)
	at := func(i, j int) *float64 { return &a[i*stride+j] }
	addG := func(i, j int, g float64) {
		*at(i, i) += g
		*at(j, j) += g
		*at(i, j) -= g
		*at(j, i) -= g
	}
	for i := 0; i < n; i++ {
		addG(i, n, m.gVert[i])
	}
	for i, ad := range m.adj {
		addG(ad.A, ad.B, m.gLat[i])
	}
	addG(n, n+1, 1/m.p.SpreaderR)
	*at(n+1, n+1) += 1 / m.p.SinkR
	*at(n+1, size) += m.p.Ambient / m.p.SinkR
	return a
}

// Blocks returns the number of block nodes.
func (m *Model) Blocks() int { return m.n }

// Temp returns the temperature (°C) of block i.
func (m *Model) Temp(i int) float64 { return m.temps[i] }

// Temps returns the block temperatures (°C); the slice is a copy.
func (m *Model) Temps() []float64 {
	return m.TempsInto(make([]float64, m.n))
}

// TempsInto copies the block temperatures (°C) into out and returns it.
// len(out) must equal Blocks().
func (m *Model) TempsInto(out []float64) []float64 {
	if len(out) != m.n {
		panic(fmt.Sprintf("thermal: TempsInto scratch has %d blocks, want %d", len(out), m.n))
	}
	copy(out, m.temps[:m.n])
	return out
}

// SpreaderTemp and SinkTemp return the package node temperatures.
func (m *Model) SpreaderTemp() float64 { return m.temps[m.n] }

// SinkTemp returns the heat-sink temperature.
func (m *Model) SinkTemp() float64 { return m.temps[m.n+1] }

// Ambient returns the ambient temperature.
func (m *Model) Ambient() float64 { return m.p.Ambient }

// Rise returns block i's rise over ambient.
func (m *Model) Rise(i int) float64 { return m.temps[i] - m.p.Ambient }

// SetTemps overrides all node temperatures (blocks, spreader, sink).
func (m *Model) SetTemps(block []float64, spreader, sink float64) {
	if len(block) != m.n {
		panic(fmt.Sprintf("thermal: SetTemps with %d blocks, want %d", len(block), m.n))
	}
	copy(m.temps, block)
	m.temps[m.n] = spreader
	m.temps[m.n+1] = sink
}

// maxSubsteps bounds the explicit-integration subdivision of one Step
// call.  A degenerate floorplan (a sliver block with near-zero area, or
// extreme parameter overrides) can drive minTau toward zero; without the
// cap the inner loop would silently explode to billions of iterations.
// At the default parameters a 1 ms interval takes a few hundred substeps,
// so the cap is far outside the calibrated regime.
const maxSubsteps = 1_000_000

// Step advances the network by dt seconds with the given per-block power
// (W).  It subdivides dt to honour the explicit-integration stability
// bound, capped at maxSubsteps (accuracy degrades past the cap rather
// than the loop running away).
func (m *Model) Step(power []float64, dt float64) {
	if len(power) != m.n {
		panic(fmt.Sprintf("thermal: Step with %d powers, want %d blocks", len(power), m.n))
	}
	sub := m.minTau / 3
	steps := 1
	if sub > 0 && dt > sub { // guard: degenerate minTau (0, NaN) falls through to 1
		steps = int(dt/sub) + 1
		if steps > maxSubsteps || steps < 1 { // < 1: int overflow on huge dt/sub
			steps = maxSubsteps
		}
	}
	h := dt / float64(steps)
	n := m.n
	dTdt := m.dTdt
	for s := 0; s < steps; s++ {
		for i := range dTdt {
			dTdt[i] = 0
		}
		for i := 0; i < n; i++ {
			dTdt[i] += power[i]
			flow := m.gVert[i] * (m.temps[i] - m.temps[n])
			dTdt[i] -= flow
			dTdt[n] += flow
		}
		for i, a := range m.adj {
			flow := m.gLat[i] * (m.temps[a.A] - m.temps[a.B])
			dTdt[a.A] -= flow
			dTdt[a.B] += flow
		}
		fSpSink := (m.temps[n] - m.temps[n+1]) / m.p.SpreaderR
		dTdt[n] -= fSpSink
		dTdt[n+1] += fSpSink
		dTdt[n+1] -= (m.temps[n+1] - m.p.Ambient) / m.p.SinkR
		for i := range m.temps {
			m.temps[i] += h * dTdt[i] / m.caps[i]
		}
	}
}

// SteadyState solves the network for the equilibrium temperatures under
// the given constant per-block power and installs them.  This implements
// the paper's warm start: "we assume that the processor has already been
// running for a long time ... until temperature converges".  Solutions
// are capped at the emergency limit (381 K), as the paper caps its warm-
// up.
//
// The solve is Gaussian elimination with partial pivoting.  Its pivots,
// row swaps, elimination factors and final diagonal depend only on the
// conductance matrix, so they were recorded once for this geometry; each
// call replays them on the power column alone, in O(n²) instead of
// O(n³), with the same floating-point operations in the same order as a
// full elimination, so the temperatures are bit-identical to one.
func (m *Model) SteadyState(power []float64) {
	if len(power) != m.n {
		panic(fmt.Sprintf("thermal: SteadyState with %d powers, want %d blocks", len(power), m.n))
	}
	x := m.ssX
	copy(x, m.ss.rhs)
	copy(x, power)
	m.ss.solve(x)
	for i, t := range x {
		if t > m.p.EmergencyCap {
			t = m.p.EmergencyCap
		}
		m.temps[i] = t
	}
}
