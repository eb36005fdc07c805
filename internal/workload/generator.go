package workload

import (
	"repro/internal/rng"
	"repro/internal/uop"
)

// Generator produces a deterministic stream of micro-ops for one profile.
// It is the execution-trace substitute described in DESIGN.md §2: the
// static content of every trace-cache line (op classes, PCs, line length)
// is a pure function of its trace ID, so the trace cache behaves as it
// would for real code, while dynamic properties (operand distances,
// addresses, branch outcomes) vary per execution of the line.
type Generator struct {
	prof  Profile
	src   *rng.Source
	total uint64
	count uint64
	// depDist draws register dependency distances (mean DepDistMean).
	depDist rng.GeometricSampler

	// Current trace-line buffer.
	buf    [uop.MaxTraceOps]uop.MicroOp
	bufLen int
	bufPos int

	// Phase state (hot = small skewed trace working set).
	phaseLeft int
	hot       bool

	// Register dependency state: ring buffers of recently written logical
	// registers, one per register space.  lastAddr tracks registers
	// written by non-load integer ops: address bases are drawn from it,
	// modelling induction-variable-driven addressing (array walks do not
	// chase loaded pointers; see PtrChaseFrac).
	lastInt  [64]int8
	nInt     uint64
	lastFP   [64]int8
	nFP      uint64
	lastAddr [64]int8
	nAddr    uint64
	rrInt    int8
	rrFP     int8
	rrInd    int8 // round-robin over the induction registers

	// Memory stream state.
	streamPos  [4]uint64
	streamBase [4]uint64
	nextStream int
	hotBase    uint64

	// lines memoizes each trace's static shape, and holds its loop
	// counter, by the trace's index in the Zipf draw (pickTrace).
	lines []traceLine
}

// traceLine is what fillTrace needs of one trace that is a pure function
// of its ID, built on first use, plus the per-trace loop counter that
// drives its branch's outcomes.  A trace ends at its first branch, so it
// has at most one.
type traceLine struct {
	n     uint8 // static length; 0 until built
	loopK uint8
	loops uint8 // executions of the branch so far
	class [uop.MaxTraceOps]uop.Class
	flags [uop.MaxTraceOps]uint8 // slotFPData, slotInduction, slotSrc2
}

// Static per-slot properties of a trace line.
const (
	slotFPData    = 1 << iota // a memory op moving FP data (isFPConsumerSlot)
	slotInduction             // an IntALU induction update
	slotSrc2                  // an integer op with a second source
)

// NewGenerator returns a generator that will emit totalOps micro-ops
// (scaled by the profile's LengthScale) for profile p.
func NewGenerator(p Profile, totalOps uint64) *Generator {
	p = p.defaults()
	g := &Generator{
		prof:    p,
		src:     rng.New(p.Seed),
		total:   uint64(float64(totalOps) * p.LengthScale),
		depDist: rng.NewGeometricSampler(p.DepDistMean),
	}
	if g.total == 0 {
		g.total = 1
	}
	for i := range g.lastInt {
		g.lastInt[i] = int8(i % uop.NumIntRegs)
	}
	for i := range g.lastAddr {
		g.lastAddr[i] = int8(i % uop.NumIntRegs)
	}
	for i := range g.lastFP {
		g.lastFP[i] = int8(uop.NumIntRegs + i%uop.NumFPRegs)
	}
	for s := range g.streamBase {
		g.streamBase[s] = g.src.Uint64n(p.DataWS &^ 63)
	}
	g.hotBase = g.src.Uint64n(p.DataWS-p.HotDataB+1) &^ 63
	g.lines = make([]traceLine, max(p.HotTraces, p.ColdTraces))
	g.hot = true
	g.phaseLeft = p.PhaseLen
	return g
}

// Total returns the number of micro-ops the generator will emit.
func (g *Generator) Total() uint64 { return g.total }

// Emitted returns the number of micro-ops emitted so far.
func (g *Generator) Emitted() uint64 { return g.count }

// Next returns the next micro-op.  ok is false when the stream is
// exhausted.
func (g *Generator) Next() (op uop.MicroOp, ok bool) {
	if g.count >= g.total {
		return uop.MicroOp{}, false
	}
	if g.bufPos >= g.bufLen {
		g.fillTrace()
	}
	op = g.buf[g.bufPos]
	g.bufPos++
	op.Seq = g.count
	g.count++
	return op, true
}

// hash64 is a fixed 64-bit mix function (splitmix64 finalizer) used to
// derive the static content of a trace line from its ID.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// classAt returns the stable op class of slot i of trace id, drawn from
// the profile's instruction mix.
func (g *Generator) classAt(id uint64, slot int) uop.Class {
	p := &g.prof
	u := float64(hash64(id*uop.MaxTraceOps+uint64(slot))>>11) / (1 << 53)
	switch {
	case u < p.FracBranch:
		return uop.Branch
	case u < p.FracBranch+p.FracLoad:
		return uop.Load
	case u < p.FracBranch+p.FracLoad+p.FracStore:
		return uop.Store
	case u < p.FracBranch+p.FracLoad+p.FracStore+p.FracFPAdd:
		return uop.FPAdd
	case u < p.FracBranch+p.FracLoad+p.FracStore+p.FracFPAdd+p.FracFPMul:
		return uop.FPMul
	case u < p.FracBranch+p.FracLoad+p.FracStore+p.FracFPAdd+p.FracFPMul+p.FracFPDiv:
		return uop.FPDiv
	case u < p.FracBranch+p.FracLoad+p.FracStore+p.FracFPAdd+p.FracFPMul+p.FracFPDiv+p.FracIntMul:
		return uop.IntMul
	case u < p.FracBranch+p.FracLoad+p.FracStore+p.FracFPAdd+p.FracFPMul+p.FracFPDiv+p.FracIntMul+p.FracIntDiv:
		return uop.IntDiv
	default:
		return uop.IntALU
	}
}

// TraceLen returns the static length of trace id: slots up to and
// including the first Branch, capped at uop.MaxTraceOps.
func (g *Generator) TraceLen(id uint64) int {
	for i := 0; i < uop.MaxTraceOps; i++ {
		if g.classAt(id, i) == uop.Branch {
			return i + 1
		}
	}
	return uop.MaxTraceOps
}

// pickTrace selects the next trace according to the current phase and
// returns its index in the working set; traceID maps it to the ID.
func (g *Generator) pickTrace() int {
	p := &g.prof
	if g.phaseLeft <= 0 {
		g.phaseLeft = p.PhaseLen
		g.hot = g.src.Bool(p.HotFrac)
	}
	var idx int
	if g.hot {
		idx = g.src.Zipf(p.HotTraces, p.TraceTheta)
	} else {
		idx = g.src.Zipf(p.ColdTraces, 0.25)
	}
	return idx
}

// traceID returns the ID of the trace at index idx of the working set.
// The hot working set is a subset of the cold one (hot loops live inside
// the full program), so both phases share low indices.  Distinct indices
// give distinct IDs: the map is a bijection.
func (g *Generator) traceID(idx int) uint64 {
	return hash64(g.prof.Seed ^ uint64(idx)*0x9E3779B97F4A7C15)
}

// line returns the trace line at index idx, building its static shape on
// first use.
func (g *Generator) line(idx int) (*traceLine, uint64) {
	l, id := &g.lines[idx], g.traceID(idx)
	if l.n > 0 {
		return l, id
	}
	l.n = uint8(g.TraceLen(id))
	l.loopK = uint8(2 + hash64(id^0xB10C)%14)
	for i := 0; i < int(l.n); i++ {
		l.class[i] = g.classAt(id, i)
		if g.isFPConsumerSlot(id, i) {
			l.flags[i] |= slotFPData
		}
		if hash64(id^uint64(i)*0x5bd1e995)%4 == 0 {
			l.flags[i] |= slotInduction
		}
		if hash64(id+uint64(i)*31)&1 == 0 {
			l.flags[i] |= slotSrc2
		}
	}
	return l, id
}

// srcIntReg returns a source register with geometric dependency distance
// over recently written integer registers.
func (g *Generator) srcIntReg() int8 {
	d := uint64(g.depDist.Draw(g.src))
	if d > g.nInt {
		d = g.nInt
	}
	if d == 0 {
		return 0
	}
	return g.lastInt[(g.nInt-d)%uint64(len(g.lastInt))]
}

// srcFPReg returns a source register over recently written FP registers.
func (g *Generator) srcFPReg() int8 {
	d := uint64(g.depDist.Draw(g.src))
	if d > g.nFP {
		d = g.nFP
	}
	if d == 0 {
		return uop.NumIntRegs
	}
	return g.lastFP[(g.nFP-d)%uint64(len(g.lastFP))]
}

// allocIntDst cycles destinations round-robin through the integer space so
// realized dependency distances stay close to the drawn ones.  Destinations
// of non-load producers additionally feed the address-base ring.
func (g *Generator) allocIntDst(fromLoad bool) int8 {
	r := numInductionRegs + g.rrInt
	g.rrInt = (g.rrInt + 1) % (uop.NumIntRegs - numInductionRegs)
	g.lastInt[g.nInt%uint64(len(g.lastInt))] = r
	g.nInt++
	if !fromLoad {
		g.lastAddr[g.nAddr%uint64(len(g.lastAddr))] = r
		g.nAddr++
	}
	return r
}

// numInductionRegs reserves the low integer registers for loop induction
// variables: registers that are updated from themselves by 1-cycle ALU
// ops (i = i + stride), forming dependence chains independent of memory.
// Real array codes derive their addresses from such registers, which is
// what lets load misses overlap.
const numInductionRegs = 4

// srcAddrReg returns an address-base register.  Most addresses derive from
// induction variables; the rest use a recent ALU result or — rarely —
// chase a loaded value, as in linked-data-structure codes.
func (g *Generator) srcAddrReg() int8 {
	const ptrChaseFrac = 0.06
	const aluAddrFrac = 0.15
	u := g.src.Float64()
	switch {
	case u < ptrChaseFrac:
		return g.srcIntReg()
	case u < ptrChaseFrac+aluAddrFrac:
		d := uint64(g.depDist.Draw(g.src))
		if d > g.nAddr {
			d = g.nAddr
		}
		if d == 0 {
			return 0
		}
		return g.lastAddr[(g.nAddr-d)%uint64(len(g.lastAddr))]
	default:
		return int8(g.src.Intn(numInductionRegs))
	}
}

func (g *Generator) allocFPDst() int8 {
	r := uop.NumIntRegs + g.rrFP
	g.rrFP = (g.rrFP + 1) % uop.NumFPRegs
	g.lastFP[g.nFP%uint64(len(g.lastFP))] = r
	g.nFP++
	return r
}

// memAddr produces the next data address: a streaming (strided) access
// with probability StrideFrac, otherwise a pseudo-random access within the
// data working set.
func (g *Generator) memAddr() uint64 {
	p := &g.prof
	if g.src.Bool(p.StrideFrac) {
		s := g.nextStream
		g.nextStream = (g.nextStream + 1) % len(g.streamPos)
		g.streamPos[s] += 16
		if g.streamPos[s] >= p.DataWS/4 {
			g.streamPos[s] = 0
			g.streamBase[s] = g.src.Uint64n(p.DataWS &^ 63)
		}
		return (g.streamBase[s] + g.streamPos[s]) % p.DataWS &^ 7
	}
	if g.src.Bool(p.HotDataFrac) {
		return (g.hotBase + g.src.Uint64n(p.HotDataB)) % p.DataWS &^ 7
	}
	return g.src.Uint64n(p.DataWS) &^ 7
}

// fillTrace materializes the next trace line into the buffer.
func (g *Generator) fillTrace() {
	l, id := g.line(g.pickTrace())
	n := int(l.n)
	for i := 0; i < n; i++ {
		cl := l.class[i]
		op := uop.MicroOp{
			PC:    id<<6 + uint64(i)*4,
			Class: cl,
			Src1:  uop.RegNone,
			Src2:  uop.RegNone,
			Dst:   uop.RegNone,
		}
		switch cl {
		case uop.Branch:
			op.Src1 = g.srcIntReg()
			// Outcomes follow a per-trace loop pattern (taken k-1 times,
			// then not taken, with k stable per trace) plus occasional
			// data-dependent flips.  Real branch predictors can learn
			// this; the profile's MispredRate still drives the default
			// (calibrated) misprediction behaviour.
			op.Taken = l.loops%l.loopK != l.loopK-1
			l.loops++
			if g.src.Bool(0.08) {
				op.Taken = !op.Taken
			}
			op.Mispred = g.src.Bool(g.prof.MispredRate)
		case uop.Load:
			op.Src1 = g.srcAddrReg() // address base
			op.Addr = g.memAddr()
			if l.flags[i]&slotFPData != 0 {
				op.Dst = g.allocFPDst()
			} else {
				op.Dst = g.allocIntDst(true)
			}
		case uop.Store:
			op.Src1 = g.srcAddrReg() // address base
			op.Addr = g.memAddr()
			if l.flags[i]&slotFPData != 0 {
				op.Src2 = g.srcFPReg()
			} else {
				op.Src2 = g.srcIntReg()
			}
		case uop.FPAdd, uop.FPMul, uop.FPDiv:
			op.Src1 = g.srcFPReg()
			op.Src2 = g.srcFPReg()
			op.Dst = g.allocFPDst()
		default: // integer ALU/mul/div
			if cl == uop.IntALU && l.flags[i]&slotInduction != 0 {
				// Induction update: r = r + stride, a loop-carried
				// 1-cycle chain independent of memory.
				ind := g.rrInd
				g.rrInd = (g.rrInd + 1) % numInductionRegs
				op.Src1 = ind
				op.Dst = ind
				break
			}
			op.Src1 = g.srcIntReg()
			if l.flags[i]&slotSrc2 != 0 {
				op.Src2 = g.srcIntReg()
			}
			op.Dst = g.allocIntDst(false)
		}
		g.buf[i] = op
	}
	g.buf[n-1].TraceEnd = true
	g.bufLen = n
	g.bufPos = 0
	g.phaseLeft -= n
}

// isFPConsumerSlot decides (stably per trace slot) whether a memory op
// moves FP data; FP-heavy codes move mostly FP values.
func (g *Generator) isFPConsumerSlot(id uint64, slot int) bool {
	fpShare := g.prof.FracFPAdd + g.prof.FracFPMul + g.prof.FracFPDiv
	u := float64(hash64(id^uint64(slot)*0xABCD)>>11) / (1 << 53)
	return u < fpShare*2.2
}
