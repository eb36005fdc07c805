package core

import (
	"repro/internal/backend"
	"repro/internal/rename"
	"repro/internal/uop"
)

// This file implements the frontend pipeline: fetch from the trace cache,
// the decode/rename/steer delay line, and the dispatch stage where
// steering, renaming (centralized or distributed) and resource allocation
// happen (§2, §3.1 of the paper).

// ---------------------------------------------------------------------
// Decode pipe (ring buffer)

func (p *Processor) pipeSpace() int { return len(p.pipe) - p.pipeCount }

func (p *Processor) pipePush(u uop.MicroOp, ready uint64) {
	if p.pipeCount == len(p.pipe) {
		panic("core: decode pipe overflow")
	}
	idx := (p.pipeHead + p.pipeCount) % len(p.pipe)
	p.pipe[idx] = pipeEntry{u: u, ready: ready}
	p.pipeCount++
}

func (p *Processor) pipeFront() *pipeEntry {
	if p.pipeCount == 0 {
		return nil
	}
	return &p.pipe[p.pipeHead]
}

func (p *Processor) pipePop() {
	p.pipeHead = (p.pipeHead + 1) % len(p.pipe)
	p.pipeCount--
}

// ---------------------------------------------------------------------
// Fetch

// fetch pulls at most one trace line per cycle from the trace cache into
// the decode pipe.  On a trace-cache miss the line is built from the UL2
// (§2: the frontend reads IA32 instructions from the UL2, translates them
// into micro-ops and stores them in the trace cache); fetch stalls until
// the refill completes.  After fetching a mispredicted branch, fetch
// blocks until the branch resolves (wrong-path fetch is not simulated;
// its activity is a second-order power effect — see DESIGN.md).
func (p *Processor) fetch(now uint64) {
	if p.fetchBlocked || now < p.fetchStallUntil {
		return
	}
	if p.gateDen > 0 && int(now%uint64(p.gateDen)) >= p.gateNum {
		return // thermal-management fetch toggling
	}
	if p.pipeSpace() < uop.MaxTraceOps {
		return
	}
	if len(p.pending) == 0 {
		if p.genDone {
			return
		}
		for {
			u, ok := p.feeder.Next()
			if !ok {
				p.genDone = true
				break
			}
			p.pending = append(p.pending, u)
			if u.TraceEnd {
				break
			}
		}
		if len(p.pending) == 0 {
			return
		}
	}
	id := p.pending[0].PC >> 6
	p.itlbAcc++
	p.bpAcc++ // next-trace prediction
	hit, _ := p.tc.Access(id)
	if !hit {
		// Build the trace from the UL2 over a memory bus.  The static
		// code footprint of the SPEC applications fits comfortably in
		// the 2 MB UL2, so trace builds are charged the UL2 hit latency;
		// the UL2 tag access is still recorded for power.
		busDone := p.membus.Request(now)
		if !p.ul2.Read(id << 6) {
			p.ul2.Fill(id << 6)
		}
		p.tc.Fill(id)
		p.fetchStallUntil = busDone + uint64(p.cfg.UL2HitLat)
		p.Stats.TCMissStalls++
		return
	}
	delay := uint64(p.cfg.FetchToDispatch + p.cfg.DecodeLatency)
	for i := range p.pending {
		u := p.pending[i]
		if u.Class == uop.Branch {
			p.bpAcc++
			if p.predictor != nil {
				// Replace the profile's calibrated misprediction flag
				// with a real prediction against the resolved outcome.
				p.predictor.Predict(u.PC)
				u.Mispred = p.predictor.Update(u.PC, u.Taken)
				p.pending[i].Mispred = u.Mispred
			}
		}
		p.pipePush(u, now+delay)
		p.decodeOps++
	}
	last := p.pending[len(p.pending)-1]
	if last.Class == uop.Branch && last.Mispred {
		p.fetchBlocked = true
		p.Stats.Mispredicts++
	}
	p.pending = p.pending[:0]
	p.Stats.TracesFetched++
}

// ---------------------------------------------------------------------
// Dispatch: steer, rename, allocate

// queueFor returns the issue queue kind for a micro-op class.
func queueFor(c uop.Class) backend.QueueKind {
	switch {
	case c.IsMem():
		return backend.MemQueue
	case c.IsFP():
		return backend.FPQueue
	default:
		return backend.IntQueue
	}
}

// dispatchPlan is the per-instruction resource plan computed before any
// state is mutated, so that a failed check leaves the machine untouched.
type dispatchPlan struct {
	cluster int
	kind    backend.QueueKind
	// copies[i] describes the copy needed for source i; donor < 0 means
	// no copy is needed (value already present, or duplicate of source 0).
	donor   [2]int8
	sameAs0 [2]bool
	needInt int
	needFP  int
}

// dispatch moves up to DispatchWidth micro-ops per cycle from the decode
// pipe into the backend, in program order.  Steering is dependence- and
// load-aware; renaming follows §3.1.1: the destination register is
// renamed at the steer stage using the centralized freelists, source
// registers are mapped in the owning frontend's table, and values absent
// from the chosen backend trigger copy instructions (with the two-step
// copy-request protocol when the donor lives under another frontend).
func (p *Processor) dispatch(now uint64) {
	for n := 0; n < p.cfg.DispatchWidth; n++ {
		front := p.pipeFront()
		if front == nil || front.ready > now {
			return
		}
		plan, ok := p.planDispatch(&front.u, steerRR(now, p.cfg.Clusters))
		if !ok {
			p.Stats.DispatchStalls++
			return
		}
		p.applyDispatch(&front.u, plan, now)
		p.pipePop()
	}
}

// steer picks the destination cluster: it scores each cluster by how many
// source operands are already present (availability-table lookups) minus
// a load penalty, as in the clustered steering schemes the paper builds
// on.  Ties go to cluster rr.
func (p *Processor) steer(u *uop.MicroOp, rr int) int {
	kind := queueFor(u.Class)
	srcs, nSrc := u.Sources()
	var holders [2]uint32
	for s := 0; s < nSrc; s++ {
		holders[s] = p.avail.Holders(srcs[s])
	}
	best, bestScore := 0, -1<<30
	for cl := 0; cl < p.cfg.Clusters; cl++ {
		score := 0
		for s := 0; s < nSrc; s++ {
			if holders[s]&(1<<uint(cl)) != 0 {
				// Keeping dependence chains local avoids the ~12-cycle
				// copy round trip, so presence dominates the score.
				score += 48
			}
		}
		cluster := p.clusters[cl]
		// Load balance breaks ties and steers away from congestion.
		occ := cluster.Queues[kind].Occupancy()
		score -= occ
		score -= (cluster.Queues[backend.IntQueue].Occupancy() +
			cluster.Queues[backend.FPQueue].Occupancy()) / 4
		if !p.reorder.CanAlloc(p.frontOf[cl]) {
			score -= 64 // a full ROB partition would stall dispatch
		}
		if cl == rr {
			score++ // rotate ties
		}
		if score > bestScore {
			best, bestScore = cl, score
		}
	}
	return best
}

// steerRR is the cluster steer prefers on ties in cycle c: the
// preference rotates across the clusters one per cycle.
func steerRR(c uint64, clusters int) int { return int(c % uint64(clusters)) }

// planDispatch steers the op, preferring cluster rr on ties, and
// verifies every resource it needs.  It changes nothing but the
// availability table's read count.
func (p *Processor) planDispatch(u *uop.MicroOp, rr int) (dispatchPlan, bool) {
	plan := dispatchPlan{donor: [2]int8{-1, -1}}
	plan.cluster = p.steer(u, rr)
	plan.kind = queueFor(u.Class)
	cl := plan.cluster
	cluster := p.clusters[cl]

	if !p.reorder.CanAlloc(p.frontOf[cl]) {
		return plan, false
	}
	if cluster.Queues[plan.kind].Free() == 0 {
		return plan, false
	}
	switch u.Class {
	case uop.Store:
		for c2 := range p.clusters {
			if !p.clusters[c2].Mob.CanAlloc() {
				return plan, false
			}
		}
	case uop.Load:
		if !cluster.Mob.CanAlloc() {
			return plan, false
		}
	}

	srcs, nSrc := u.Sources()
	for s := 0; s < nSrc; s++ {
		r := srcs[s]
		if p.avail.Holds(r, cl) {
			continue
		}
		if s == 1 && srcs[0] == r {
			plan.sameAs0[1] = true
			continue
		}
		donor, ok := p.avail.AnyHolder(r, p.prefer[cl])
		if !ok {
			panic("core: source register held nowhere")
		}
		// One CopyQueue slot per copy the donor receives: both sources
		// may come from the same donor.
		need := 1
		if s == 1 && plan.donor[0] == int8(donor) {
			need = 2
		}
		if p.clusters[donor].Queues[backend.CopyQueue].Free() < need {
			return plan, false
		}
		plan.donor[s] = int8(donor)
		if uop.IsFPReg(r) {
			plan.needFP++
		} else {
			plan.needInt++
		}
	}
	if u.HasDst() {
		if uop.IsFPReg(u.Dst) {
			plan.needFP++
		} else {
			plan.needInt++
		}
	}
	if p.freeInt[cl].Available() < plan.needInt || p.freeFP[cl].Available() < plan.needFP {
		return plan, false
	}
	return plan, true
}

// applyDispatch performs the planned dispatch: renaming, copy creation,
// ROB/queue/MOB allocation.
func (p *Processor) applyDispatch(u *uop.MicroOp, plan dispatchPlan, now uint64) {
	cl := plan.cluster
	cluster := p.clusters[cl]
	id := int32(u.Seq % p.slabN)
	op := &p.slab[id]
	if op.inUse {
		panic("core: op slab slot reused while live")
	}
	*op = opState{u: *u, cluster: int8(cl), dstPhys: -1, inUse: true}

	srcs, nSrc := u.Sources()
	op.nSrc = int8(nSrc)
	for s := 0; s < nSrc; s++ {
		r := srcs[s]
		fp := uop.IsFPReg(r)
		op.srcFP[s] = fp
		switch {
		case plan.sameAs0[s]:
			op.srcPhys[s] = op.srcPhys[0]
		case plan.donor[s] >= 0:
			op.srcPhys[s] = p.makeCopy(r, int(plan.donor[s]), cl, 2*u.Seq+uint64(s), now)
		default:
			op.srcPhys[s] = p.maps[cl].Get(r)
		}
		rf := p.regfile(cl, fp)
		op.srcRF[s] = rf
		op.srcReady[s] = rf.ReadyAtPtr(op.srcPhys[s])
	}

	if u.HasDst() {
		fp := uop.IsFPReg(u.Dst)
		var phys int16
		if fp {
			phys, _ = p.freeFP[cl].Alloc()
		} else {
			phys, _ = p.freeInt[cl].Alloc()
		}
		op.dstPhys = phys
		op.dstRF = p.regfile(cl, fp)
		op.dstRF.SetPending(phys)
		prev := p.maps[cl].Set(u.Dst, phys)
		if prev != rename.PhysNone {
			op.addFree(int8(cl), fp, prev)
		}
		// Stale copies of the old value elsewhere die with this
		// definition; their registers are reclaimed when it commits.
		holders := p.avail.Holders(u.Dst)
		for c2 := 0; c2 < p.cfg.Clusters; c2++ {
			if c2 == cl || holders&(1<<uint(c2)) == 0 {
				continue
			}
			stale := p.maps[c2].Clear(u.Dst)
			if stale != rename.PhysNone {
				op.addFree(int8(c2), fp, stale)
			}
		}
		p.avail.SetOnly(u.Dst, cl)
	}

	part := p.frontOf[cl]
	ref, ok := p.reorder.Alloc(part, id)
	if !ok {
		panic("core: ROB alloc failed after successful plan")
	}
	op.ref = ref

	switch u.Class {
	case uop.Load:
		op.line = u.Addr &^ uint64(p.cfg.LineB-1)
		op.page = u.Addr &^ uint64(p.cfg.PageB-1)
		cluster.Mob.Alloc(u.Seq, false)
	case uop.Store:
		op.line = u.Addr &^ uint64(p.cfg.LineB-1)
		op.page = u.Addr &^ uint64(p.cfg.PageB-1)
		for c2 := range p.clusters {
			p.clusters[c2].Mob.Alloc(u.Seq, true)
		}
	case uop.Branch:
		if u.Mispred {
			op.redirect = true
		}
	}

	// Compact wakeup record for the per-cycle issue poll.
	h := &p.readyHot[id]
	*h = readyHot{}
	if op.nSrc >= 1 {
		h.src0 = op.srcReady[0]
	}
	if op.nSrc >= 2 && u.Class != uop.Store {
		h.src1 = op.srcReady[1] // a store's data operand does not gate issue
	}
	switch u.Class {
	case uop.IntDiv:
		h.kind = readyIntDiv
	case uop.FPDiv:
		h.kind = readyFPDiv
	case uop.Load:
		h.kind = readyLoad
		h.seq = u.Seq
	}

	arrives := now + uint64(p.cfg.DispatchLatency)
	cluster.Queues[plan.kind].Dispatch(backend.QueueEntry{ID: id, Seq: u.Seq}, arrives)
	p.lower(queueIndex(cl, plan.kind), arrives)
}

// makeCopy creates the copy instruction bringing logical register r from
// cluster donor into cluster cl, returning the destination physical
// register the consumer will read.  Cross-frontend copies pay the §3.1.1
// request penalty.  seq orders the copy in the donor's CopyQueue: twice
// the consumer's program order plus the source index, so the copies of
// one consumer issue source 0 first, as they arrived.
func (p *Processor) makeCopy(r int8, donor, cl int, seq uint64, now uint64) int16 {
	fp := uop.IsFPReg(r)
	var phys int16
	if fp {
		phys, _ = p.freeFP[cl].Alloc()
	} else {
		phys, _ = p.freeInt[cl].Alloc()
	}
	p.regfile(cl, fp).SetPending(phys)
	p.maps[cl].Set(r, phys)
	p.avail.Add(r, cl)

	var idx int32
	if n := len(p.copyFree); n > 0 {
		idx = p.copyFree[n-1]
		p.copyFree = p.copyFree[:n-1]
	} else {
		p.copies = append(p.copies, copyState{})
		idx = int32(len(p.copies) - 1)
	}
	c := &p.copies[idx]
	srcPhys := p.maps[donor].Get(r)
	donorRF := p.regfile(donor, fp)
	*c = copyState{
		src: int8(donor), dst: int8(cl), fp: fp,
		srcPhys: srcPhys, dstPhys: phys, inUse: true,
		srcReady: donorRF.ReadyAtPtr(srcPhys),
		srcRF:    donorRF,
		dstRF:    p.regfile(cl, fp),
	}
	delay := uint64(p.cfg.DispatchLatency)
	if p.cfg.Distributed() && p.frontOf[donor] != p.frontOf[cl] {
		delay += uint64(p.cfg.CrossFrontendCopyPenalty)
		p.Stats.CrossFrontend++
	}
	p.Stats.Copies++
	if !p.clusters[donor].Queues[backend.CopyQueue].Dispatch(
		backend.QueueEntry{ID: copyBase + idx, Seq: seq}, now+delay,
	) {
		panic("core: copy queue full after successful plan")
	}
	p.lower(queueIndex(donor, backend.CopyQueue), now+delay)
	return phys
}

// addFree records a physical register to release when the op commits.
func (o *opState) addFree(cluster int8, fp bool, phys int16) {
	if int(o.nFrees) == len(o.frees) {
		panic("core: too many register frees for one op")
	}
	o.frees[o.nFrees] = regFree{cluster: cluster, fp: fp, phys: phys}
	o.nFrees++
}
