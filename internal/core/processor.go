package core

import (
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/interconnect"
	"repro/internal/rename"
	"repro/internal/rob"
	"repro/internal/tcache"
	"repro/internal/uop"
)

// Feeder supplies the dynamic micro-op stream (normally a
// workload.Generator).
type Feeder interface {
	Next() (uop.MicroOp, bool)
}

// copyBase offsets copy-instruction ids above op-slab ids in issue-queue
// entries.  Register waiter tokens use a denser layout: slab indices for
// ops, slabN+copy index for copies.
const copyBase int32 = 1 << 30

// Stats aggregates the performance counters of one run.
type Stats struct {
	Cycles         uint64
	Committed      uint64 // committed micro-ops
	TracesFetched  uint64
	TCMissStalls   uint64
	DispatchStalls uint64
	Mispredicts    uint64
	Copies         uint64
	CrossFrontend  uint64 // copies that needed the two-step request
	LoadForwards   uint64
	LoadMisses     uint64

	// Event-queue traffic.  EventPushes/EventPops count scheduled and
	// drained completion events; StoreWakeups counts store completions
	// scheduled by a producer wakeup instead of an event of their own;
	// StorePollsAvoided estimates the 2-cycle poll re-arms the
	// pre-wakeup scheme would have executed for the same waits, so perf
	// work can quantify queue pressure without a profiler.
	EventPushes       uint64
	EventPops         uint64
	StoreWakeups      uint64
	StorePollsAvoided uint64
	// ReadyEvals counts readiness evaluations by the issue select (calls
	// to ready), plus one per cycle for each load parked on its MOB and
	// each op parked on a busy divider: the poll that parking replaced
	// evaluated such an entry every cycle, so it is charged, not
	// evaluated.  Entries parked on an unproduced source are not counted,
	// so the queues' Reads exceed it by those parked polls.
	ReadyEvals uint64
}

// IPC returns committed micro-ops per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

type regFree struct {
	cluster int8
	fp      bool
	phys    int16
}

type opState struct {
	u         uop.MicroOp
	cluster   int8
	nSrc      int8
	nFrees    int8
	redirect  bool
	inUse     bool
	storeWait bool // store subscribed to its data producer's register
	srcPhys   [2]int16
	srcFP     [2]bool
	dstPhys   int16
	// waitFrom is the cycle the store's address half finished while its
	// data operand was still unproduced; the producer's wakeup schedules
	// completion at max(waitFrom, data ready cycle).
	waitFrom uint64
	// Resolved at dispatch so the per-cycle wakeup poll is a pointer load
	// instead of a cluster->regfile->slice walk: srcReady points at the
	// readiness slot of each source physical register, srcRF/dstRF at the
	// owning register files (for read/write accounting and write-back).
	srcReady [2]*uint64
	srcRF    [2]*backend.RegFile
	dstRF    *backend.RegFile
	frees    [8]regFree
	ref      rob.Ref
	line     uint64
	page     uint64
}

type copyState struct {
	src, dst         int8
	fp               bool
	srcPhys, dstPhys int16
	inUse            bool
	srcReady         *uint64 // donor register's readiness slot
	srcRF, dstRF     *backend.RegFile
}

type pipeEntry struct {
	u     uop.MicroOp
	ready uint64
}

// readyKind classifies what (besides source operands) gates an op's
// issue, resolved once at dispatch.
type readyKind uint8

const (
	readySimple readyKind = iota // sources only
	readyIntDiv                  // + unpipelined integer divider free
	readyFPDiv                   // + unpipelined FP divider free
	readyLoad                    // + memory disambiguation
)

// readyHot is the compact per-slab-slot record the per-cycle wakeup poll
// reads: one cache line instead of the full opState.  src0/src1 point at
// the readiness slots of the source physical registers (nil: no operand
// gates issue — absent source, or a store's data operand).
type readyHot struct {
	src0, src1 *uint64
	seq        uint64 // loads: program order for disambiguation
	kind       readyKind
}

// onMOB is ready's answer for a load it parked on its cluster's MOB.
const onMOB = backend.NeverReady - 1

// noStore is wakeMOB's released argument for a SetAddr: no slab index.
const noStore int32 = -1

// mobPark is a load (slab index id) parked on its cluster's MOB, off
// the issue scan.  until is NeverReady while an older store has no
// address at all (MOB.BlockedByUnknown): a SetAddr or Release on that
// MOB that ends the block wakes it.  Otherwise store is the slab index
// of the oldest older store whose address is still on the
// disambiguation bus, and until the cycle it arrives: the cluster's MemQ
// visit at that cycle wakes the load, or the store's Release if it
// commits first.  A woken load is evaluated again and may park on the
// next blocking store.
type mobPark struct {
	id, store int32
	until     uint64
}

// queueState is the core's bookkeeping for one issue queue.
type queueState struct {
	q *backend.IssueQueue
	// due is a lower bound on the first cycle a visit can change
	// anything: the earliest of the prescheduler head's arrival (while
	// the window has room), WakeAt and, for MemQ, the cluster's MOB due.
	due uint64
	// The poll that parking replaced read every window entry every
	// cycle.  parked counts the entries parked on a source register,
	// charged one Read per cycle; polled those waiting on a busy divider
	// (until divFree) or, for MemQ, on the MOB, charged one Read and one
	// ReadyEval per cycle.  settled is the last cycle whose charge is in
	// the counters: settle brings it up to date before a count changes.
	parked, polled, settled uint64
	divFree                 uint64
}

// mobParking is one cluster's MOB-parked loads; due is a lower bound on
// the earliest finite until among them (NeverReady: none).
type mobParking struct {
	loads []mobPark
	due   uint64
}

// Processor is the whole simulated machine.
type Processor struct {
	cfg    Config
	feeder Feeder

	tc     *tcache.TraceCache
	ul2    *cache.Cache
	membus *interconnect.Group
	disbus *interconnect.Group
	net    *interconnect.Network

	avail   *rename.AvailabilityTable
	freeInt []*rename.FreeList
	freeFP  []*rename.FreeList
	maps    []*rename.MapTable
	reorder *rob.ROB

	clusters []*backend.Cluster
	dl1      []*cache.Cache
	dtlb     []*cache.Cache

	// preference order for copy donors, per consumer cluster: same
	// frontend first, then by link distance.
	prefer [][]int
	// frontOf is cfg.FrontendOf per cluster.
	frontOf []int

	cycle    uint64
	slab     []opState
	readyHot []readyHot // parallel to slab
	slabN    uint64     // slab size

	copies   []copyState
	copyFree []int32

	// queues is the issue stage's bookkeeping per issue queue, in
	// issueAll's visit order (cluster*NumQueues+kind).  nextDue is the
	// smallest due cycle among them.  cursor is the last queue whose
	// charge point this cycle has passed (-1: none yet), so a parked
	// count that changes knows whether this cycle's charge includes it.
	queues  []queueState
	nextDue uint64
	cursor  int
	// mobParked holds, per cluster, the loads parked on its MOB.
	mobParked []mobParking

	pipe      []pipeEntry // ring buffer
	pipeHead  int
	pipeCount int

	pending         []uop.MicroOp // next trace line awaiting fetch
	fetchStallUntil uint64
	fetchBlocked    bool
	genDone         bool
	predictor       *bpred.Predictor // nil unless UseBranchPredictor
	gateNum         int              // fetch duty cycle (DTM); 0 = ungated
	gateDen         int

	events   eventQueue
	drainBuf []int32 // reused by drainEvents; at most one event per slab slot

	// stallReads holds, per steering residue, the availability-table
	// reads of the stalled decode-pipe front op's failed dispatch plan:
	// skipQuiet charges them per skipped cycle.
	stallReads []uint64

	pendingCommits []pendingCommit // commit effects delayed by the distributed latency
	commitBuf      []int32

	lastCommitCycle uint64
	stepped         uint64 // cycles step ran, the rest were skipped

	Stats Stats

	// Frontend activity counters not owned by a sub-structure.
	itlbAcc   uint64
	bpAcc     uint64
	decodeOps uint64
}

type pendingCommit struct {
	applyAt uint64
	id      int32
}

// New builds a processor for the configuration, drawing micro-ops from
// the feeder.  It panics on an invalid configuration (use
// Config.Validate to check first).
func New(cfg Config, feeder Feeder) *Processor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Processor{cfg: cfg, feeder: feeder}
	p.tc = tcache.New(cfg.TC)
	p.ul2 = cache.New(cache.Config{Name: "UL2", SizeB: cfg.UL2SizeB, Ways: cfg.UL2Ways, LineB: cfg.LineB})
	p.membus = interconnect.NewGroup(cfg.MemBuses, cfg.BusLatency, cfg.BusArbiter, 1)
	p.disbus = interconnect.NewGroup(cfg.DisBuses, cfg.BusLatency, cfg.BusArbiter, 1)
	p.net = interconnect.NewNetwork(cfg.Clusters, cfg.LinkWidth)
	p.avail = rename.NewAvailabilityTable(cfg.Clusters)

	for cl := 0; cl < cfg.Clusters; cl++ {
		p.freeInt = append(p.freeInt, rename.NewFreeList(cfg.Cluster.IntRegs))
		p.freeFP = append(p.freeFP, rename.NewFreeList(cfg.Cluster.FPRegs))
		p.maps = append(p.maps, rename.NewMapTable())
		p.clusters = append(p.clusters, backend.NewCluster(cl, cfg.Cluster))
		p.dl1 = append(p.dl1, cache.New(cache.Config{
			Name: fmt.Sprintf("DL1-%d", cl), SizeB: cfg.DL1SizeB, Ways: cfg.DL1Ways, LineB: cfg.LineB,
		}))
		p.dtlb = append(p.dtlb, cache.New(cache.Config{
			Name: fmt.Sprintf("DTLB-%d", cl), SizeB: cfg.DTLBSizeB, Ways: cfg.DTLBWays, LineB: cfg.PageB,
		}))
	}
	p.reorder = rob.New(cfg.Frontends, cfg.ROBEntries/cfg.Frontends)

	// Slab slots stay live until commit effects apply, which the
	// distributed organization delays; size for the worst backlog.
	p.slabN = uint64(2*cfg.ROBEntries + cfg.CommitWidth*(cfg.DistributedCommitExtra+2))
	p.slab = make([]opState, p.slabN)
	p.readyHot = make([]readyHot, p.slabN)
	p.pipe = make([]pipeEntry, (cfg.FetchToDispatch+cfg.DecodeLatency+2)*cfg.FetchWidth)

	// Steady-state capacity for every append-driven structure of the
	// cycle loop, so the measured phase never grows a slice: at most one
	// live event per slab slot or copy, copies bounded by the copy-queue
	// occupancies, commit backlog bounded by width and delay.
	copyCap := cfg.Clusters*(cfg.Cluster.CopyQ+cfg.Cluster.Prescheduler) + 8
	p.copies = make([]copyState, 0, copyCap)
	p.copyFree = make([]int32, 0, copyCap)
	p.queues = make([]queueState, 0, cfg.Clusters*int(backend.NumQueues))
	for _, c := range p.clusters {
		for _, q := range c.Queues {
			p.queues = append(p.queues, queueState{q: q, due: backend.NeverReady})
		}
	}
	p.nextDue = backend.NeverReady
	p.cursor = len(p.queues)
	// At most a MemQ window of loads parks on each cluster's MOB.
	loads := make([]mobPark, cfg.Clusters*cfg.Cluster.MemQ)
	p.mobParked = make([]mobParking, cfg.Clusters)
	for cl := range p.mobParked {
		lo := cl * cfg.Cluster.MemQ
		p.mobParked[cl] = mobParking{loads: loads[lo : lo : lo+cfg.Cluster.MemQ], due: backend.NeverReady}
	}
	// Wakeup subscription tokens are slab indices, then copy indices;
	// pre-sizing the waiter links keeps the steady-state subscribe/notify
	// path allocation-free.
	for _, c := range p.clusters {
		c.IntRF.EnsureWaiterTokens(int(p.slabN) + copyCap)
		c.FPRF.EnsureWaiterTokens(int(p.slabN) + copyCap)
	}
	// The event ring covers the largest completion latency the machine
	// charges in one step — a memory access with its TLB, bus and
	// arbitration penalties — plus slack for ALU/divider latencies and
	// moderate bus queueing; rarer delays spill into the overflow FIFO.
	horizon := cfg.MemLat + cfg.UL2HitLat + cfg.DTLBMissLat + cfg.BusLatency + cfg.BusArbiter + 64
	p.events.initEventQueue(horizon, int(p.slabN))
	p.drainBuf = make([]int32, 0, p.slabN)
	p.pendingCommits = make([]pendingCommit, 0, cfg.CommitWidth*(cfg.DistributedCommitExtra+2))
	p.commitBuf = make([]int32, 0, cfg.CommitWidth)
	p.pending = make([]uop.MicroOp, 0, 2*uop.MaxTraceOps)
	p.stallReads = make([]uint64, cfg.Clusters)

	// Architectural initial state: every logical register lives in
	// cluster 0, mapped to a freshly allocated (and ready) physical
	// register.
	p.avail.Reset()
	for r := int8(0); r < uop.NumLogicalRegs; r++ {
		var phys int16
		var ok bool
		if uop.IsFPReg(r) {
			phys, ok = p.freeFP[0].Alloc()
		} else {
			phys, ok = p.freeInt[0].Alloc()
		}
		if !ok {
			panic("core: register file too small for architectural state")
		}
		p.maps[0].Set(r, phys)
	}

	p.frontOf = make([]int, cfg.Clusters)
	for cl := range p.frontOf {
		p.frontOf[cl] = cfg.FrontendOf(cl)
	}
	// Donor preference per cluster: same frontend first (the paper's copy
	// request is cheaper inside a frontend), then by ring distance.
	p.prefer = make([][]int, cfg.Clusters)
	for cl := 0; cl < cfg.Clusters; cl++ {
		var same, other []int
		for c2 := 0; c2 < cfg.Clusters; c2++ {
			if c2 == cl {
				continue
			}
			if p.frontOf[c2] == p.frontOf[cl] {
				same = append(same, c2)
			} else {
				other = append(other, c2)
			}
		}
		sortByDistance := func(list []int) {
			for i := 1; i < len(list); i++ {
				for j := i; j > 0 && p.net.Distance(cl, list[j]) < p.net.Distance(cl, list[j-1]); j-- {
					list[j], list[j-1] = list[j-1], list[j]
				}
			}
		}
		sortByDistance(same)
		sortByDistance(other)
		p.prefer[cl] = append([]int{cl}, append(same, other...)...)
	}

	if cfg.UseBranchPredictor {
		bits := cfg.BPredBits
		if bits == 0 {
			bits = 14
		}
		p.predictor = bpred.New(bits)
	}

	return p
}

// Config returns the processor's configuration.
func (p *Processor) Config() Config { return p.cfg }

// Cycle returns the current cycle number.
func (p *Processor) Cycle() uint64 { return p.cycle }

// TraceCache exposes the trace cache, for interval reconfiguration by the
// simulation driver.
func (p *Processor) TraceCache() *tcache.TraceCache { return p.tc }

// Predictor returns the branch predictor, or nil when the configuration
// uses the workload's calibrated misprediction rates.
func (p *Processor) Predictor() *bpred.Predictor { return p.predictor }

// SetFetchGate throttles fetch to num cycles out of every den (dynamic
// thermal management's fetch toggling).  num >= den or den <= 0 removes
// the gate.
func (p *Processor) SetFetchGate(num, den int) {
	if den <= 0 || num >= den {
		p.gateNum, p.gateDen = 0, 0
		return
	}
	if num < 1 {
		num = 1
	}
	p.gateNum, p.gateDen = num, den
}

// Done reports whether the workload is exhausted and the pipeline fully
// drained.
func (p *Processor) Done() bool {
	return p.genDone && len(p.pending) == 0 && p.pipeCount == 0 &&
		p.reorder.Occupancy() == 0 && p.events.count == 0 && len(p.pendingCommits) == 0
}

// Step advances the machine by one clock cycle.
func (p *Processor) Step() {
	p.step()
	p.settleAll()
}

// watchdogCycles is how long the ROB may hold instructions without a
// commit before the cycle loop declares a deadlock and panics.
const watchdogCycles = 500000

func (p *Processor) step() {
	p.cycle++
	p.stepped++
	p.cursor = -1
	now := p.cycle
	p.applyPendingCommits(now)
	p.drainEvents(now)
	p.commit(now)
	p.issueAll(now)
	p.dispatch(now)
	p.fetch(now)
	p.Stats.Cycles = p.cycle
	if now-p.lastCommitCycle > watchdogCycles && p.reorder.Occupancy() > 0 {
		id, _ := p.reorder.Head()
		panic(fmt.Sprintf("core: no commit for %d cycles; head op %+v", now-p.lastCommitCycle, p.slab[id].u))
	}
}

// Run executes until the workload finishes or maxCycles elapse (0 = no
// limit); it returns the number of cycles executed.
func (p *Processor) Run(maxCycles uint64) uint64 {
	start := p.cycle
	if maxCycles == 0 {
		maxCycles = noBound
	}
	p.runUntil(start + min(maxCycles, noBound-start))
	return p.cycle - start
}

// RunCycles executes exactly n cycles (or fewer if the workload drains).
func (p *Processor) RunCycles(n uint64) {
	p.runUntil(p.cycle + min(n, noBound-p.cycle))
}

// noBound is the last cycle runUntil can run to: nextActive answers up
// to one past its bound.
const noBound = math.MaxUint64 - 1

// runUntil runs the machine to cycle end (at most noBound), or until the
// workload drains.  It steps only the cycles in which some stage can act
// and jumps over the quiet ones (skipQuiet), so the counters read as if
// every cycle had been stepped.
func (p *Processor) runUntil(end uint64) {
	for p.cycle < end && !p.Done() {
		p.skipQuiet(end)
		if p.cycle < end {
			p.step()
		}
	}
	p.settleAll()
}

// skipQuiet advances the cycle to just before the next cycle in which
// any stage can act, at most to end, and charges the skipped cycles'
// per-cycle counters in bulk.  In a skipped cycle no event is due, no
// instruction commits or has its commit effects applied, no issue queue
// is due, dispatch either has no ready op or fails its plan, and
// fetch is stalled, gated or blocked; what such a cycle counts is one
// ROB walk read while the head waits, and one DispatchStalls with the
// availability-table reads of that cycle's steering plan while dispatch
// stalls.  The issue queues' parked charges settle from the cycle
// number on their own.
func (p *Processor) skipQuiet(end uint64) {
	now := p.cycle
	t := p.nextActive(end)
	if t <= now+1 {
		return
	}
	to := t - 1 // the last quiet cycle
	n := to - now
	p.reorder.ChargeStalledWalks(n)
	if front := p.pipeFront(); front != nil && front.ready <= now {
		// Dispatch stalls in every skipped cycle; nextActive recorded
		// the reads of each residue they cover.
		k := uint64(p.cfg.Clusters)
		reads := uint64(0)
		for c := now + 1; c <= min(to, now+k); c++ {
			r := p.stallReads[steerRR(c, p.cfg.Clusters)]
			reads += r * ((to-c)/k + 1)
		}
		p.Stats.DispatchStalls += n
		p.avail.Reads += reads
	}
	p.cycle = to
	p.Stats.Cycles = to
}

// nextActive returns the first cycle after the current one in which
// some stage can act, or end+1 when no cycle up to end can.  It reads
// the stages' own resume cycles cheapest first and stops early at the
// next cycle.  When the decode pipe's front op is ready but stalled it
// records, per steering residue it tried, the availability-table reads
// of the failed plan in stallReads.
func (p *Processor) nextActive(end uint64) uint64 {
	now := p.cycle
	soon := now + 1
	t := end + 1
	if t <= soon {
		return soon
	}
	// Issue: a queue due; commit: a completed head, or a delayed commit
	// effect.
	if p.nextDue <= soon || p.reorder.HeadCompleted() {
		return soon
	}
	t = min(t, p.nextDue)
	if len(p.pendingCommits) > 0 {
		// Appended in applyAt order, and compaction keeps the order.
		t = min(t, max(p.pendingCommits[0].applyAt, soon))
	}
	front := p.pipeFront()
	if front != nil && front.ready > now {
		t = min(t, front.ready)
	}
	if t == soon {
		return soon
	}
	// Fetch: it can act once unstalled, in an open gate cycle, with room
	// in the pipe and something to fetch; fetchBlocked clears only at an
	// event.
	if !p.fetchBlocked && p.pipeSpace() >= uop.MaxTraceOps && (len(p.pending) > 0 || !p.genDone) {
		c := max(p.fetchStallUntil, soon)
		if p.gateDen > 0 {
			if r := int(c % uint64(p.gateDen)); r >= p.gateNum {
				c += uint64(p.gateDen - r)
			}
		}
		if t = min(t, c); t == soon {
			return soon
		}
	}
	if p.reorder.Occupancy() > 0 {
		t = min(t, max(p.lastCommitCycle+watchdogCycles+1, soon))
	}
	if t = p.events.nextBusy(now, t); t == soon {
		return soon
	}
	if front != nil && front.ready <= now {
		// Dispatch stalls until a cycle whose steering residue makes the
		// front op's plan succeed: nothing else it reads can change
		// before t.
		k := uint64(p.cfg.Clusters)
		for c := soon; c < min(t, soon+k); c++ {
			rr := steerRR(c, p.cfg.Clusters)
			before := p.avail.Reads
			_, ok := p.planDispatch(&front.u, rr)
			p.stallReads[rr] = p.avail.Reads - before
			p.avail.Reads = before
			if ok {
				return c
			}
		}
	}
	return t
}

// ---------------------------------------------------------------------
// Events

func (p *Processor) pushEvent(cycle uint64, id int32) {
	p.events.push(cycle, id, p.cycle)
	p.Stats.EventPushes++
}

// drainEvents completes every op whose event is due this cycle, in the
// order the events were pushed (the bucket queue's FIFO guarantee).
func (p *Processor) drainEvents(now uint64) {
	p.drainBuf = p.events.drainInto(now, p.drainBuf[:0])
	for _, id := range p.drainBuf {
		p.Stats.EventPops++
		p.completeOp(id, now)
	}
}

// wakeWaiters handles every token subscribed to a register whose value
// just became ready at cycle `ready` (now is the producer's issue
// cycle).  A parked issue-queue entry returns to its queue's scan.  A
// store completes at its true ready cycle — the later of its address
// half finishing and the data arriving — where the replaced scheme
// would have polled every 2 cycles.
func (p *Processor) wakeWaiters(tokens []int32, ready, now uint64) {
	for _, id := range tokens {
		if id >= int32(p.slabN) {
			idx := id - int32(p.slabN)
			p.unpark(copyBase+idx, int(p.copies[idx].src), backend.CopyQueue, now)
			continue
		}
		w := &p.slab[id]
		if !w.storeWait {
			p.unpark(id, int(w.cluster), queueFor(w.u.Class), now)
			continue
		}
		w.storeWait = false
		at := w.waitFrom
		if ready > at {
			at = ready
		}
		p.pushEvent(at, id)
		p.Stats.StoreWakeups++
		if now > w.waitFrom {
			// The old scheme re-armed every 2 cycles from waitFrom until a
			// poll found the producer issued (cycle `now`), then once more
			// at the exact ready time.
			p.Stats.StorePollsAvoided += (now-w.waitFrom+1)/2 + 1
		}
	}
}

// completeOp handles write-back: the op becomes ready to commit.
func (p *Processor) completeOp(id int32, now uint64) {
	op := &p.slab[id]
	if op.storeWait {
		panic("core: store completed while still subscribed to its data producer")
	}
	if op.u.Class == uop.Store && op.nSrc == 2 {
		if *op.srcReady[1] > now {
			panic("core: store completed before its data operand is ready")
		}
		op.srcRF[1].CountRead()
	}
	p.reorder.Complete(op.ref)
	if op.redirect {
		// The mispredicted branch resolved: redirect the frontend.
		p.fetchBlocked = false
		if until := now + uint64(p.cfg.RedirectPenalty); until > p.fetchStallUntil {
			p.fetchStallUntil = until
		}
	}
}

// ---------------------------------------------------------------------
// Commit

func (p *Processor) commit(now uint64) {
	p.commitBuf = p.reorder.Commit(p.cfg.CommitWidth, p.commitBuf[:0])
	if len(p.commitBuf) == 0 {
		return
	}
	p.lastCommitCycle = now
	extra := uint64(0)
	if p.cfg.Distributed() {
		extra = uint64(p.cfg.DistributedCommitExtra)
	}
	for _, id := range p.commitBuf {
		if extra == 0 {
			p.commitEffects(id, now)
		} else {
			p.pendingCommits = append(p.pendingCommits, pendingCommit{applyAt: now + extra, id: id})
		}
	}
}

func (p *Processor) applyPendingCommits(now uint64) {
	n := 0
	for _, pc := range p.pendingCommits {
		if pc.applyAt <= now {
			p.commitEffects(pc.id, now)
		} else {
			p.pendingCommits[n] = pc
			n++
		}
	}
	p.pendingCommits = p.pendingCommits[:n]
}

// commitEffects releases the resources of a committed instruction: stale
// physical registers, MOB slots, and — for stores — the data-cache write
// with the write-update protocol of §2.
func (p *Processor) commitEffects(id int32, now uint64) {
	op := &p.slab[id]
	for i := int8(0); i < op.nFrees; i++ {
		f := op.frees[i]
		if f.fp {
			p.freeFP[f.cluster].Free(f.phys)
		} else {
			p.freeInt[f.cluster].Free(f.phys)
		}
	}
	if op.u.Class == uop.Store {
		own := int(op.cluster)
		if !p.dl1[own].Write(op.line) {
			// Write-allocate: bring the line in.  Committed stores are off
			// the critical path, so no pipeline stall is charged; the UL2
			// access is recorded for power.
			if !p.ul2.Read(op.line) {
				p.ul2.Fill(op.line)
			}
			p.dl1[own].Fill(op.line)
		}
		for cl := range p.dl1 {
			if cl != own {
				p.dl1[cl].Update(op.line) // write-update of remote copies
			}
		}
		p.ul2.Update(op.line)
		for cl := range p.clusters {
			p.clusters[cl].Mob.Release(op.u.Seq)
			p.wakeMOB(cl, id, now)
		}
	}
	op.inUse = false
	p.Stats.Committed++
}

// ---------------------------------------------------------------------
// Issue and execute

// issueAll runs the oldest-ready select of the issue queues, in
// cluster-major, kind-minor order, visiting only the queues whose due
// cycle has come: a visit to any other would change nothing.  An entry
// whose source producer has not issued is parked on that register's
// waiter list instead of being re-polled; a load the MOB refuses parks
// on the cluster's MOB (see mobPark), and an op waiting on a busy
// divider until the cycle it frees.  Parked entries are off the scan and
// cost no ready call, but are charged per cycle as the poll they
// replace was evaluated (see queueState).
func (p *Processor) issueAll(now uint64) {
	if p.nextDue <= now {
		p.nextDue = backend.NeverReady
		for qi := range p.queues {
			s := &p.queues[qi]
			if s.due <= now {
				p.visit(qi, now)
			}
			p.nextDue = min(p.nextDue, s.due)
		}
	}
	p.cursor = len(p.queues)
}

// visit runs issue queue qi's part of the cycle: arrivals, the wakeups
// due now, then the select over its active entries.
func (p *Processor) visit(qi int, now uint64) {
	s := &p.queues[qi]
	q := s.q
	cl, k := qi/int(backend.NumQueues), backend.QueueKind(qi%int(backend.NumQueues))
	p.cursor = qi - 1
	q.Advance(now)
	if k == backend.MemQueue {
		p.visitMOB(cl, now)
	} else if s.polled > 0 && s.divFree <= now {
		p.settle(qi)
		s.polled = 0 // the divider is free: evaluated from now on
	}
	p.cursor = qi // this cycle's charge point
	if q.WakeAt <= now {
		p.selectIssue(cl, qi, now)
	}
	s.due = min(q.WakeAt, q.NextArrival())
	if k == backend.MemQueue {
		s.due = min(s.due, p.mobParked[cl].due)
	}
}

// selectIssue evaluates queue qi's active entries that are due and
// issues the oldest ready one.
func (p *Processor) selectIssue(cl, qi int, now uint64) {
	q := p.queues[qi].q
	act := q.Active()
	best := -1
	var bestSeq uint64
	wake := backend.NeverReady
	evals := uint64(0)
	for i := 0; i < len(act); {
		e := &act[i]
		if e.NotBefore > now {
			wake = min(wake, e.NotBefore)
			i++
			continue
		}
		evals++
		ok, retry := p.ready(cl, e, now)
		if !ok {
			if retry >= onMOB { // parked: on a register, or by ready on the MOB
				if retry == backend.NeverReady {
					p.park(e, qi)
				}
				q.Park(i) // the last active entry moves into slot i
				act = act[:len(act)-1]
				continue
			}
			e.NotBefore = retry
			wake = min(wake, retry)
			i++
			continue
		}
		if best == -1 || e.Seq < bestSeq {
			best = i
			bestSeq = e.Seq
		}
		wake = min(wake, e.NotBefore) // ready, not issued: re-evaluate next cycle
		i++
	}
	q.CountWakeups(evals)
	p.Stats.ReadyEvals += evals
	q.WakeAt = wake
	if best >= 0 {
		p.execute(cl, q.RemoveIssued(best), now)
	}
}

// lower brings queue qi's due cycle down to c.
func (p *Processor) lower(qi int, c uint64) {
	p.queues[qi].due = min(p.queues[qi].due, c)
	p.nextDue = min(p.nextDue, c)
}

// settle adds queue qi's parked charges up to the last cycle whose
// charge point has passed: this cycle once issueAll is past qi, else
// the one before.
func (p *Processor) settle(qi int) {
	s := &p.queues[qi]
	through := p.cycle
	if qi > p.cursor {
		through--
	}
	if through > s.settled {
		n := through - s.settled
		s.q.CountWakeups((s.parked + s.polled) * n)
		p.Stats.ReadyEvals += s.polled * n
		s.settled = through
	}
}

// settleAll settles every queue, so the counters are exact between
// cycles.
func (p *Processor) settleAll() {
	for qi := range p.queues {
		p.settle(qi)
	}
}

// park subscribes window entry e of queue qi to the waiter list of its
// first source register whose producer has not issued.
func (p *Processor) park(e *backend.QueueEntry, qi int) {
	p.settle(qi)
	p.queues[qi].parked++
	if e.ID >= copyBase {
		idx := e.ID - copyBase
		c := &p.copies[idx]
		c.srcRF.Subscribe(c.srcPhys, int32(p.slabN)+idx)
		return
	}
	op := &p.slab[e.ID]
	s := 0
	if *op.srcReady[0] != backend.NeverReady {
		s = 1
	}
	op.srcRF[s].Subscribe(op.srcPhys[s], e.ID)
}

// unpark returns the parked entry id of cluster cl's kind-k queue to the
// scan: the producer of its source issued at cycle now.
func (p *Processor) unpark(id int32, cl int, k backend.QueueKind, now uint64) {
	qi := queueIndex(cl, k)
	p.settle(qi)
	p.queues[qi].parked--
	p.wakeEntry(qi, id, now)
}

// wakeEntry returns queue qi's parked window entry id to the scan from
// cycle now.  The poll that parking replaces saw the change this cycle
// if the queue's scan had not run yet, else next cycle; NotBefore = now
// with WakeAt and the due cycle lowered reproduces both, because
// issueAll visits queues in a fixed order.
func (p *Processor) wakeEntry(qi int, id int32, now uint64) {
	if !p.queues[qi].q.Wake(id, now) {
		panic("core: wakeup delivered to an entry that is not parked")
	}
	p.lower(qi, now)
}

// parkOnDivider charges the op of queue qi that ready found waiting on
// its busy divider one evaluation per cycle until free, when it is
// evaluated again.  Every op waiting on one divider waits until the same
// cycle: no other op can start it before then.
func (p *Processor) parkOnDivider(qi int, free uint64) {
	s := &p.queues[qi]
	if s.polled > 0 && s.divFree != free {
		panic("core: ops parked on one divider until different cycles")
	}
	p.settle(qi)
	s.polled++
	s.divFree = free
}

// queueIndex returns the index of cluster cl's kind-k queue in p.queues.
func queueIndex(cl int, k backend.QueueKind) int { return cl*int(backend.NumQueues) + int(k) }

// parkOnMOB records a load of cluster cl that its MOB refused, until the
// refusal recorded in m can change; the scan takes its entry off.
func (p *Processor) parkOnMOB(cl int, m mobPark) {
	qi := queueIndex(cl, backend.MemQueue)
	p.settle(qi)
	p.queues[qi].polled++
	mp := &p.mobParked[cl]
	mp.loads = append(mp.loads, m)
	mp.due = min(mp.due, m.until)
}

// unparkMOB wakes load i of cluster cl's MOB-parked loads at cycle now.
func (p *Processor) unparkMOB(cl, i int, now uint64) {
	qi := queueIndex(cl, backend.MemQueue)
	p.settle(qi)
	p.queues[qi].polled--
	p.wakeEntry(qi, p.mobParked[cl].loads[i].id, now)
	p.mobParked[cl].remove(i)
}

// visitMOB runs at cluster cl's MemQ visit, before its charge point: it
// wakes the parked loads whose blocking store's address has arrived by
// now.
func (p *Processor) visitMOB(cl int, now uint64) {
	mp := &p.mobParked[cl]
	if mp.due > now {
		return
	}
	mp.due = backend.NeverReady
	for i := 0; i < len(mp.loads); {
		if m := mp.loads[i]; m.until > now {
			mp.due = min(mp.due, m.until)
			i++
			continue
		}
		p.unparkMOB(cl, i, now)
	}
}

// wakeMOB wakes the loads parked on cluster cl's MOB that a SetAddr, or
// the Release of the store with slab index released (noStore for a
// SetAddr), unblocked at cycle now: those behind an unknown store once
// none older is left, and those waiting on released's address broadcast.
func (p *Processor) wakeMOB(cl int, released int32, now uint64) {
	mp := &p.mobParked[cl]
	if len(mp.loads) == 0 {
		return
	}
	mob := p.clusters[cl].Mob
	for i := 0; i < len(mp.loads); {
		m := mp.loads[i]
		var unblocked bool
		if m.until == backend.NeverReady {
			unblocked = !mob.BlockedByUnknown(p.readyHot[m.id].seq)
		} else {
			unblocked = m.store == released
		}
		if !unblocked {
			i++
			continue
		}
		p.unparkMOB(cl, i, now)
	}
}

// remove drops parked load i; the order of the list does not matter.
func (mp *mobParking) remove(i int) {
	last := len(mp.loads) - 1
	mp.loads[i] = mp.loads[last]
	mp.loads = mp.loads[:last]
}

// ready decides whether window entry e may issue in cluster cl at cycle
// now.  When not, it returns the exact cycle (> now) it may, NeverReady
// when a source's producer has not issued yet (the caller parks the
// entry), or onMOB for a load the MOB refuses, which ready parks on the
// MOB itself.  An op waiting on its busy divider gets the cycle the
// divider frees, and ready charges it for the wait (parkOnDivider).
// Source readiness reads go through the pointers cached at dispatch.
func (p *Processor) ready(cl int, e *backend.QueueEntry, now uint64) (bool, uint64) {
	id := e.ID
	if id >= copyBase {
		at := *p.copies[id-copyBase].srcReady
		if at <= now {
			return true, 0
		}
		return false, at
	}
	h := &p.readyHot[id]
	retry := uint64(0)
	// A store's data operand does not gate issue (store-address/
	// store-data split: dispatch leaves its src1 nil here); it is only
	// needed to become ready-to-commit.
	if h.src0 != nil {
		if retry = *h.src0; retry == backend.NeverReady {
			return false, retry
		}
	}
	if h.src1 != nil {
		if at := *h.src1; at > retry {
			retry = at
		}
	}
	if retry > now {
		return false, retry
	}
	switch h.kind {
	case readyIntDiv:
		if free := p.clusters[cl].IntFU.NextFree(); free > now {
			p.parkOnDivider(queueIndex(cl, backend.IntQueue), free)
			return false, free
		}
	case readyFPDiv:
		if free := p.clusters[cl].FPFU.NextFree(); free > now {
			p.parkOnDivider(queueIndex(cl, backend.FPQueue), free)
			return false, free
		}
	case readyLoad:
		mob := p.clusters[cl].Mob
		m := mobPark{id: id, store: noStore, until: backend.NeverReady}
		if !mob.BlockedByUnknown(h.seq) {
			store, until, blocked := mob.PendingStore(h.seq, now)
			if !blocked {
				return true, 0
			}
			m.store, m.until = int32(store%p.slabN), until
		}
		p.parkOnMOB(cl, m)
		return false, onMOB
	}
	return true, 0
}

func (p *Processor) regfile(cl int, fp bool) *backend.RegFile {
	if fp {
		return p.clusters[cl].FPRF
	}
	return p.clusters[cl].IntRF
}

func (p *Processor) execute(cl int, id int32, now uint64) {
	if id >= copyBase {
		p.executeCopy(id-copyBase, now)
		return
	}
	op := &p.slab[id]
	cluster := p.clusters[cl]
	for s := int8(0); s < op.nSrc; s++ {
		if op.u.Class == uop.Store && s == 1 {
			continue // the data operand is read at completion
		}
		op.srcRF[s].CountRead()
	}
	var done uint64
	switch op.u.Class {
	case uop.Load:
		done = p.executeLoad(op, cl, now)
	case uop.Store:
		var waiting bool
		done, waiting = p.executeStore(op, id, cl, now)
		if waiting {
			// Subscribed to the data producer's register: the completion
			// event is scheduled by that producer's wakeup.  Stores in the
			// real op stream never define a register, but a degenerate
			// store-with-dst keeps the poll scheme's semantics: its
			// write-back lands when the address half finishes.
			if op.u.HasDst() {
				if tokens := op.dstRF.SetReady(op.dstPhys, op.waitFrom); len(tokens) != 0 {
					p.wakeWaiters(tokens, op.waitFrom, now)
				}
			}
			return
		}
	case uop.FPAdd, uop.FPMul, uop.FPDiv:
		lat := op.u.Class.Latency()
		cluster.FPFU.TryStart(now, lat, op.u.Class != uop.FPDiv)
		done = now + uint64(lat)
	default: // IntALU, IntMul, IntDiv, Branch
		lat := op.u.Class.Latency()
		cluster.IntFU.TryStart(now, lat, op.u.Class != uop.IntDiv)
		done = now + uint64(lat)
	}
	if op.u.HasDst() {
		if tokens := op.dstRF.SetReady(op.dstPhys, done); len(tokens) != 0 {
			p.wakeWaiters(tokens, done, now)
		}
	}
	p.pushEvent(done, id)
}

func (p *Processor) executeCopy(idx int32, now uint64) {
	c := &p.copies[idx]
	c.srcRF.CountRead()
	arrive := p.net.Send(now+1, int(c.src), int(c.dst))
	if tokens := c.dstRF.SetReady(c.dstPhys, arrive+1); len(tokens) != 0 {
		p.wakeWaiters(tokens, arrive+1, now)
	}
	c.inUse = false
	p.copyFree = append(p.copyFree, idx)
}

func (p *Processor) executeLoad(op *opState, cl int, now uint64) uint64 {
	cluster := p.clusters[cl]
	cluster.AgenOps++
	t := now + 1 // address generation
	if !p.dtlb[cl].Read(op.page) {
		p.dtlb[cl].Fill(op.page)
		t += uint64(p.cfg.DTLBMissLat)
	}
	_, fwd := cluster.Mob.Disambiguate(op.u.Seq, op.line, now)
	cluster.Mob.CountSearch()
	cluster.Mob.Release(op.u.Seq)
	if fwd {
		p.Stats.LoadForwards++
		return t + 1
	}
	if p.dl1[cl].Read(op.line) {
		return t + uint64(p.cfg.DL1HitLat)
	}
	p.Stats.LoadMisses++
	busDone := p.membus.Request(t)
	var fill uint64
	if p.ul2.Read(op.line) {
		fill = busDone + uint64(p.cfg.UL2HitLat)
	} else {
		p.ul2.Fill(op.line)
		fill = busDone + uint64(p.cfg.MemLat)
	}
	// The line is written into the cache of the cluster where the
	// requesting load resides (§2).
	p.dl1[cl].Fill(op.line)
	if p.cfg.NextLinePrefetch {
		next := op.line + uint64(p.cfg.LineB)
		if !p.dl1[cl].Lookup(next) {
			if !p.ul2.Read(next) {
				p.ul2.Fill(next)
			}
			p.dl1[cl].Fill(next)
		}
	}
	return fill
}

// executeStore runs the address half of a store.  The returned cycle is
// when the store becomes ready to commit — the later of the address
// completing and the data operand being produced.  When the data
// producer has not issued yet its ready cycle is unknown, so the store
// subscribes to the producing register and returns waiting=true: no
// event exists until the producer's wakeup schedules one.
func (p *Processor) executeStore(op *opState, id int32, cl int, now uint64) (done uint64, waiting bool) {
	cluster := p.clusters[cl]
	cluster.AgenOps++
	t := now + 1 // address generation
	if !p.dtlb[cl].Read(op.page) {
		p.dtlb[cl].Fill(op.page)
		t += uint64(p.cfg.DTLBMissLat)
	}
	// The address becomes visible locally right away and at the other
	// clusters when the disambiguation-bus broadcast arrives (§2).  A
	// SetAddr ends an unknown-store block at the call, not when the
	// address arrives, so the loads parked behind it wake now.
	cluster.Mob.CountSearch()
	cluster.Mob.SetAddr(op.u.Seq, op.line, t)
	p.wakeMOB(cl, noStore, now)
	busDone := p.disbus.Request(t)
	for c2 := range p.clusters {
		if c2 != cl {
			p.clusters[c2].Mob.SetAddr(op.u.Seq, op.line, busDone)
			p.wakeMOB(c2, noStore, now)
		}
	}
	if op.nSrc == 2 {
		rt := *op.srcReady[1]
		switch {
		case rt == backend.NeverReady:
			op.storeWait = true
			op.waitFrom = t
			op.srcRF[1].Subscribe(op.srcPhys[1], id)
			return 0, true
		case rt > t:
			t = rt
		}
	}
	return t, false
}
