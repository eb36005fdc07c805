package core

import (
	"testing"

	"repro/internal/uop"
	"repro/internal/workload"
)

// runBench runs one benchmark for n micro-ops on cfg and returns the
// processor for inspection.
func runBench(t *testing.T, cfg Config, bench string, n uint64) *Processor {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	prof.LengthScale = 1.0 // decouple tests from published slice lengths
	p := New(cfg, workload.NewGenerator(prof, n))
	p.Run(0)
	if !p.Done() {
		t.Fatalf("%s did not drain", bench)
	}
	return p
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(Config) Config{
		func(c Config) Config { c.Clusters = 0; return c },
		func(c Config) Config { c.Frontends = 3; return c }, // 4 % 3 != 0
		func(c Config) Config { c.Frontends = 8; return c },
		func(c Config) Config { c.ROBEntries = 255; c.Frontends = 2; return c },
		func(c Config) Config { c.FetchWidth = 0; return c },
		func(c Config) Config { c.TC.Banks = 0; return c },
	}
	for i, f := range bad {
		if err := f(DefaultConfig()).Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
}

func TestFrontendAssignment(t *testing.T) {
	cfg := DefaultConfig().WithDistributedFrontend(2)
	// Figure 3: frontend 0 feeds backends 0 and 1; frontend 1 feeds 2,3.
	wants := []int{0, 0, 1, 1}
	for cl, want := range wants {
		if got := cfg.FrontendOf(cl); got != want {
			t.Errorf("FrontendOf(%d) = %d, want %d", cl, got, want)
		}
	}
	if cls := cfg.ClustersOf(1); len(cls) != 2 || cls[0] != 2 || cls[1] != 3 {
		t.Errorf("ClustersOf(1) = %v", cls)
	}
	if !cfg.Distributed() || DefaultConfig().Distributed() {
		t.Error("Distributed() predicate wrong")
	}
}

func TestConfigModifiers(t *testing.T) {
	base := DefaultConfig()
	hop := base.WithBankHopping()
	if hop.TC.Banks != base.TC.Banks+1 || !hop.TC.Hopping {
		t.Error("WithBankHopping wrong")
	}
	bias := base.WithBiasedMapping()
	if !bias.TC.Biased {
		t.Error("WithBiasedMapping wrong")
	}
	blank := base.WithBlankSilicon()
	if blank.TC.Banks != base.TC.Banks+1 || blank.TC.StaticGate != blank.TC.Banks-1 {
		t.Error("WithBlankSilicon wrong")
	}
	// Modifiers must not mutate the receiver.
	if base.TC.Banks != 2 || base.TC.Hopping || base.TC.Biased {
		t.Error("modifier mutated its receiver")
	}
}

func TestBaselineRunsToCompletion(t *testing.T) {
	p := runBench(t, DefaultConfig(), "gzip", 30000)
	if p.Stats.Committed != 30000 {
		t.Fatalf("committed %d, want 30000", p.Stats.Committed)
	}
	ipc := p.Stats.IPC()
	if ipc < 0.03 || ipc > 8 {
		t.Fatalf("IPC %.2f implausible for an 8-wide machine", ipc)
	}
}

func TestDistributedRunsToCompletion(t *testing.T) {
	p := runBench(t, DefaultConfig().WithDistributedFrontend(2), "gzip", 30000)
	if p.Stats.Committed != 30000 {
		t.Fatalf("committed %d, want 30000", p.Stats.Committed)
	}
}

func TestDistributedSmallSlowdown(t *testing.T) {
	// §4.1: the distributed rename/commit slowdown is small (~2%).
	base := runBench(t, DefaultConfig(), "bzip2", 40000)
	dist := runBench(t, DefaultConfig().WithDistributedFrontend(2), "bzip2", 40000)
	slow := float64(dist.Stats.Cycles)/float64(base.Stats.Cycles) - 1
	if slow < -0.02 {
		t.Errorf("distributed frontend sped things up by %.1f%%?", -slow*100)
	}
	if slow > 0.15 {
		t.Errorf("distributed slowdown %.1f%% too large (paper: ~2%%)", slow*100)
	}
}

func TestHoppingRunsAndHitRateClose(t *testing.T) {
	base := runBench(t, DefaultConfig(), "gzip", 40000)
	hop := runBench(t, DefaultConfig().WithBankHopping(), "gzip", 40000)
	// §4.2: "the hit ratio is reduced less than 1%" — allow a few percent
	// at our scaled interval (hops happen via sim driver; here no hops
	// occur because Reconfigure is never called, so rates must be ~equal).
	if d := base.TCHitRate() - hop.TCHitRate(); d > 0.03 || d < -0.03 {
		t.Errorf("hit-rate gap %.3f without any hop", d)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runBench(t, DefaultConfig(), "vpr", 20000)
	b := runBench(t, DefaultConfig(), "vpr", 20000)
	if a.Stats != b.Stats {
		t.Fatalf("non-deterministic stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestAllClustersUsed(t *testing.T) {
	p := runBench(t, DefaultConfig(), "gcc", 40000)
	act := p.Activity()
	for cl, ca := range act.Cluster {
		exec := ca.IntFUOps + ca.FPFUOps + ca.AgenOps
		if exec == 0 {
			t.Errorf("cluster %d executed nothing (steering broken)", cl)
		}
	}
}

func TestCopiesHappen(t *testing.T) {
	p := runBench(t, DefaultConfig(), "gcc", 40000)
	if p.Stats.Copies == 0 {
		t.Fatal("no inter-cluster copies in a clustered machine")
	}
}

func TestCrossFrontendCopiesOnlyWhenDistributed(t *testing.T) {
	base := runBench(t, DefaultConfig(), "parser", 20000)
	if base.Stats.CrossFrontend != 0 {
		t.Error("cross-frontend copies counted in centralized mode")
	}
	dist := runBench(t, DefaultConfig().WithDistributedFrontend(2), "parser", 20000)
	if dist.Stats.CrossFrontend == 0 {
		t.Error("no cross-frontend copies in distributed mode")
	}
	if dist.Stats.CrossFrontend > dist.Stats.Copies {
		t.Error("cross-frontend copies exceed total copies")
	}
}

// TestSameDonorCopiesFitCopyQueue: an op whose two sources are both
// copied from one donor needs two free slots in that donor's CopyQueue.
// With a 2-entry prescheduler the planner once passed such an op on one
// free slot, the second copy was dropped, and the consumer never issued
// (the watchdog fired 500k cycles later).
func TestSameDonorCopiesFitCopyQueue(t *testing.T) {
	cfg := DefaultConfig().WithDistributedFrontend(2)
	cfg.Cluster.Prescheduler = 2
	p := runBench(t, cfg, "swim", 20000)
	if p.Stats.Copies == 0 {
		t.Fatal("no copies: the case no longer exercises the CopyQueue")
	}
}

func TestMemoryBoundBenchmarkMisses(t *testing.T) {
	p := runBench(t, DefaultConfig(), "mcf", 30000)
	if p.Stats.LoadMisses == 0 {
		t.Fatal("mcf (64MB working set) produced no DL1 misses")
	}
	if p.DL1HitRate() > 0.999 {
		t.Fatalf("mcf DL1 hit rate %.4f implausibly high", p.DL1HitRate())
	}
}

func TestFPWorkloadUsesFPUs(t *testing.T) {
	p := runBench(t, DefaultConfig(), "swim", 30000)
	act := p.Activity()
	var fp, intg uint64
	for _, ca := range act.Cluster {
		fp += ca.FPFUOps
		intg += ca.IntFUOps
	}
	if fp == 0 {
		t.Fatal("swim executed no FP operations")
	}
	if float64(fp) < 0.2*float64(intg+fp) {
		t.Errorf("swim FP share %.2f too low", float64(fp)/float64(intg+fp))
	}
}

func TestMispredictsStallFetch(t *testing.T) {
	// vpr has a 6% mispredict rate; gzip 3.5%.  More mispredicts must
	// show up in the counter.
	p := runBench(t, DefaultConfig(), "vpr", 30000)
	if p.Stats.Mispredicts == 0 {
		t.Fatal("no mispredicts recorded")
	}
}

func TestActivityDeltas(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	p := New(DefaultConfig(), workload.NewGenerator(prof, 40000))
	p.RunCycles(3000)
	a1 := p.Activity()
	p.RunCycles(3000)
	a2 := p.Activity()
	d := a2.Sub(a1)
	if d.Cycles != a2.Cycles-a1.Cycles {
		t.Error("cycle delta wrong")
	}
	if d.Decode == 0 || d.TCBank[0]+d.TCBank[1] == 0 {
		t.Error("interval deltas empty mid-run")
	}
	// Deltas must never underflow (counters are monotone).
	for _, v := range d.RATReads {
		if v > 1<<60 {
			t.Fatal("RAT read delta underflowed")
		}
	}
}

func TestROBPartitionBalance(t *testing.T) {
	p := runBench(t, DefaultConfig().WithDistributedFrontend(2), "gcc", 40000)
	act := p.Activity()
	if len(act.ROBAllocs) != 2 {
		t.Fatalf("ROB partitions = %d", len(act.ROBAllocs))
	}
	a0, a1 := float64(act.ROBAllocs[0]), float64(act.ROBAllocs[1])
	if a0 == 0 || a1 == 0 {
		t.Fatal("one ROB partition unused")
	}
	ratio := a0 / a1
	if ratio > 4 || ratio < 0.25 {
		t.Errorf("ROB partition imbalance %.2f (steering should balance)", ratio)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	p := runBench(t, DefaultConfig(), "vortex", 40000)
	if p.Stats.LoadForwards == 0 {
		t.Error("no store-to-load forwarding observed")
	}
}

func TestCommittedMatchesGenerated(t *testing.T) {
	for _, mode := range []string{"base", "dist"} {
		cfg := DefaultConfig()
		if mode == "dist" {
			cfg = cfg.WithDistributedFrontend(2)
		}
		p := runBench(t, cfg, "eon", 25000)
		// eon's LengthScale was reset to 1.0 by runBench.
		if p.Stats.Committed != 25000 {
			t.Errorf("%s: committed %d, want 25000", mode, p.Stats.Committed)
		}
	}
}

func TestQueueForMapping(t *testing.T) {
	cases := map[uop.Class]string{
		uop.IntALU: "IQ", uop.Branch: "IQ", uop.FPMul: "FPQ",
		uop.Load: "MemQ", uop.Store: "MemQ",
	}
	for cl, want := range cases {
		if got := queueFor(cl).String(); got != want {
			t.Errorf("queueFor(%v) = %s, want %s", cl, got, want)
		}
	}
}
