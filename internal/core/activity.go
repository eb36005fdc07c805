package core

import "repro/internal/backend"

// Activity is a cumulative snapshot of every activity counter the power
// model consumes.  The power model differences two snapshots to obtain
// per-interval event counts per functional block (§2.1 of the paper:
// "an activity counter is associated to each functional block").
type Activity struct {
	Cycles    uint64
	Committed uint64

	// Frontend.
	TCBank       []uint64 // per-bank accesses (reads + fills)
	ITLB         uint64
	BP           uint64
	Decode       uint64
	SteerOps     uint64   // availability-table + freelist activity (steer stage)
	RATReads     []uint64 // per frontend partition
	RATWrites    []uint64
	ROBAllocs    []uint64 // per frontend partition
	ROBCompletes []uint64
	ROBCommits   []uint64
	ROBWalks     []uint64

	// Backend, per cluster.
	Cluster []ClusterActivity

	// Shared.
	UL2 uint64
}

// ClusterActivity is the per-cluster slice of an Activity snapshot.
type ClusterActivity struct {
	IRFReads   uint64
	IRFWrites  uint64
	FPRFReads  uint64
	FPRFWrites uint64
	Queue      [backend.NumQueues]uint64 // scheduler reads+writes per queue
	Issues     [backend.NumQueues]uint64
	IntFUOps   uint64
	FPFUOps    uint64
	AgenOps    uint64
	DL1        uint64
	DTLB       uint64
	MOB        uint64
}

// Activity captures the current cumulative counters.  It allocates a
// fresh snapshot; the simulation loop uses ActivityInto with reusable
// buffers.
func (p *Processor) Activity() Activity {
	var a Activity
	p.ActivityInto(&a)
	return a
}

// ActivityInto fills a with the current cumulative counters, reusing a's
// slices when they have the right length (they do after the first call
// with the same processor).
func (p *Processor) ActivityInto(a *Activity) {
	p.settleAll()
	a.Cycles = p.cycle
	a.Committed = p.Stats.Committed
	a.ITLB = p.itlbAcc
	a.BP = p.bpAcc
	a.Decode = p.decodeOps
	a.UL2 = p.ul2.Stats.Accesses() + p.ul2.Stats.Fills

	a.TCBank = resizeU64(a.TCBank, p.tc.Banks())
	for b := 0; b < p.tc.Banks(); b++ {
		s := p.tc.BankStats(b)
		a.TCBank[b] = s.Accesses() + s.Fills
	}
	a.SteerOps = p.avail.Reads + p.avail.Writes

	f := p.cfg.Frontends
	a.RATReads = resizeU64(a.RATReads, f)
	a.RATWrites = resizeU64(a.RATWrites, f)
	for part := 0; part < f; part++ {
		a.RATReads[part] = 0
		a.RATWrites[part] = 0
	}
	for cl := 0; cl < p.cfg.Clusters; cl++ {
		part := p.frontOf[cl]
		a.RATReads[part] += p.maps[cl].Reads
		a.RATWrites[part] += p.maps[cl].Writes
	}
	a.ROBAllocs = resizeU64(a.ROBAllocs, f)
	a.ROBCompletes = resizeU64(a.ROBCompletes, f)
	a.ROBCommits = resizeU64(a.ROBCommits, f)
	a.ROBWalks = resizeU64(a.ROBWalks, f)
	for part := 0; part < f; part++ {
		ps := p.reorder.Part[part]
		a.ROBAllocs[part] = ps.Allocs
		a.ROBCompletes[part] = ps.Completes
		a.ROBCommits[part] = ps.Commits
		a.ROBWalks[part] = ps.WalkReads
	}

	if len(a.Cluster) != p.cfg.Clusters {
		a.Cluster = make([]ClusterActivity, p.cfg.Clusters)
	}
	for cl := 0; cl < p.cfg.Clusters; cl++ {
		c := p.clusters[cl]
		ca := &a.Cluster[cl]
		ca.IRFReads = c.IntRF.Reads
		ca.IRFWrites = c.IntRF.Writes
		ca.FPRFReads = c.FPRF.Reads
		ca.FPRFWrites = c.FPRF.Writes
		for k := backend.QueueKind(0); k < backend.NumQueues; k++ {
			ca.Queue[k] = c.Queues[k].Reads + c.Queues[k].Writes
			ca.Issues[k] = c.Queues[k].IssueCount
		}
		ca.IntFUOps = c.IntFU.Ops
		ca.FPFUOps = c.FPFU.Ops
		ca.AgenOps = c.AgenOps
		ca.DL1 = p.dl1[cl].Stats.Accesses() + p.dl1[cl].Stats.Fills
		ca.DTLB = p.dtlb[cl].Stats.Accesses() + p.dtlb[cl].Stats.Fills
		ca.MOB = c.Mob.Reads + c.Mob.Writes
	}
}

// Sub returns the per-interval delta a - prev (counter-wise).  It
// allocates the result; the simulation loop uses SubInto.
func (a Activity) Sub(prev Activity) Activity {
	var d Activity
	a.SubInto(&prev, &d)
	return d
}

// SubInto writes the per-interval delta a - prev into d, reusing d's
// slices when they have the right length.
func (a *Activity) SubInto(prev, d *Activity) {
	d.Cycles = a.Cycles - prev.Cycles
	d.Committed = a.Committed - prev.Committed
	d.ITLB = a.ITLB - prev.ITLB
	d.BP = a.BP - prev.BP
	d.Decode = a.Decode - prev.Decode
	d.SteerOps = a.SteerOps - prev.SteerOps
	d.UL2 = a.UL2 - prev.UL2
	d.TCBank = subSlice(d.TCBank, a.TCBank, prev.TCBank)
	d.RATReads = subSlice(d.RATReads, a.RATReads, prev.RATReads)
	d.RATWrites = subSlice(d.RATWrites, a.RATWrites, prev.RATWrites)
	d.ROBAllocs = subSlice(d.ROBAllocs, a.ROBAllocs, prev.ROBAllocs)
	d.ROBCompletes = subSlice(d.ROBCompletes, a.ROBCompletes, prev.ROBCompletes)
	d.ROBCommits = subSlice(d.ROBCommits, a.ROBCommits, prev.ROBCommits)
	d.ROBWalks = subSlice(d.ROBWalks, a.ROBWalks, prev.ROBWalks)
	if len(d.Cluster) != len(a.Cluster) {
		d.Cluster = make([]ClusterActivity, len(a.Cluster))
	}
	for i := range a.Cluster {
		ca, pa := a.Cluster[i], prev.Cluster[i]
		dc := &d.Cluster[i]
		dc.IRFReads = ca.IRFReads - pa.IRFReads
		dc.IRFWrites = ca.IRFWrites - pa.IRFWrites
		dc.FPRFReads = ca.FPRFReads - pa.FPRFReads
		dc.FPRFWrites = ca.FPRFWrites - pa.FPRFWrites
		for k := range ca.Queue {
			dc.Queue[k] = ca.Queue[k] - pa.Queue[k]
			dc.Issues[k] = ca.Issues[k] - pa.Issues[k]
		}
		dc.IntFUOps = ca.IntFUOps - pa.IntFUOps
		dc.FPFUOps = ca.FPFUOps - pa.FPFUOps
		dc.AgenOps = ca.AgenOps - pa.AgenOps
		dc.DL1 = ca.DL1 - pa.DL1
		dc.DTLB = ca.DTLB - pa.DTLB
		dc.MOB = ca.MOB - pa.MOB
	}
}

// resizeU64 returns s when it has length n, a fresh slice otherwise.
func resizeU64(s []uint64, n int) []uint64 {
	if len(s) == n {
		return s
	}
	return make([]uint64, n)
}

// subSlice writes a - b element-wise into dst (reused when sized right;
// entries of a beyond b's length pass through unchanged).
func subSlice(dst, a, b []uint64) []uint64 {
	dst = resizeU64(dst, len(a))
	for i := range a {
		if i < len(b) {
			dst[i] = a[i] - b[i]
		} else {
			dst[i] = a[i]
		}
	}
	return dst
}

// TCHitRate returns the trace cache hit rate so far.
func (p *Processor) TCHitRate() float64 { return p.tc.Stats.HitRate() }

// DL1HitRate returns the aggregate first-level data cache hit rate.
func (p *Processor) DL1HitRate() float64 {
	var acc, miss uint64
	for _, d := range p.dl1 {
		acc += d.Stats.Reads + d.Stats.Writes
		miss += d.Stats.Misses()
	}
	if acc == 0 {
		return 1
	}
	return 1 - float64(miss)/float64(acc)
}
