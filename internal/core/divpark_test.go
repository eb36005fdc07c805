package core

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/uop"
)

// issueCycles runs p to completion one cycle at a time and returns, per
// sequence number in seqs, the cycle the op issued: the cycle its
// destination register got a ready cycle (the ops must define one).
func issueCycles(t *testing.T, p *Processor, seqs ...uint64) []uint64 {
	t.Helper()
	issued := make([]uint64, len(seqs))
	for !p.Done() {
		p.Step()
		for i, seq := range seqs {
			op := &p.slab[seq%p.slabN]
			if issued[i] == 0 && op.inUse && op.u.Seq == seq &&
				op.dstRF.ReadyAt(op.dstPhys) != backend.NeverReady {
				issued[i] = p.cycle
			}
		}
	}
	for i, c := range issued {
		if c == 0 {
			t.Fatalf("op %d never issued", seqs[i])
		}
	}
	return issued
}

// The cycles at which the scheme before divider parking, which retried
// an op waiting on a busy divider every cycle, issued the two divides of
// TestDividerParkIssuesOnFree, and the readiness evaluations it counted.
const (
	pollFirstDiv    = 40
	pollSecondDiv   = 60
	pollDivEvals    = 22
	intDivLatency   = 20
	divScriptLength = 2
)

// TestDividerParkIssuesOnFree: two back-to-back IntDivs on one source
// steer to one cluster.  The second waits on the unpipelined divider,
// parks until it frees, and issues at that cycle, the one the per-cycle
// retry it replaces found; it is still charged one evaluation for every
// cycle it waited.
func TestDividerParkIssuesOnFree(t *testing.T) {
	ops := []uop.MicroOp{
		{Class: uop.IntDiv, Src1: 1, Src2: uop.RegNone, Dst: 2},
		{Class: uop.IntDiv, Src1: 1, Src2: uop.RegNone, Dst: 3},
	}
	if got := uop.IntDiv.Latency(); got != intDivLatency {
		t.Fatalf("IntDiv latency %d, the pinned cycles assume %d", got, intDivLatency)
	}
	p := New(DefaultConfig(), script(ops))
	got := issueCycles(t, p, 0, 1)
	if p.slab[0].cluster != p.slab[1].cluster {
		t.Fatalf("divides in clusters %d and %d; the script must share one divider",
			p.slab[0].cluster, p.slab[1].cluster)
	}
	if got[0] != pollFirstDiv || got[1] != pollSecondDiv {
		t.Errorf("divides issued at %v, want [%d %d]", got, pollFirstDiv, pollSecondDiv)
	}
	if got[1]-got[0] != intDivLatency {
		t.Errorf("second divide issued %d cycles after the first, want the divider's %d",
			got[1]-got[0], intDivLatency)
	}
	if p.Stats.ReadyEvals != pollDivEvals {
		t.Errorf("ReadyEvals %d, want %d (one per cycle each divide waited, plus its issue)",
			p.Stats.ReadyEvals, pollDivEvals)
	}
	var reads uint64
	for _, c := range p.clusters {
		reads += c.Queues[backend.IntQueue].Reads
	}
	if reads != p.Stats.ReadyEvals {
		t.Errorf("IntQ reads %d, ReadyEvals %d: nothing parked on a register, so they must agree",
			reads, p.Stats.ReadyEvals)
	}
	if p.Stats.Committed != divScriptLength {
		t.Fatalf("committed %d of %d", p.Stats.Committed, divScriptLength)
	}
}
