package core

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/uop"
)

// mobTrace is what stepping a scripted run observed about one load and
// the store before it.
type mobTrace struct {
	loadCluster, storeCluster int
	// issued is the cycle the load left its MemQ window.
	issued uint64
	// arrives is the cycle the store's address reached the load's MOB,
	// and released the cycle the store left it.
	arrives, released uint64
	// parkedUnknown and parkedUntil record the load's MOB parks: behind
	// an unknown store, and until an in-flight address arrives (0: never).
	parkedUnknown bool
	parkedUntil   uint64
}

// traceLoad runs p to completion one cycle at a time, watching the load
// with sequence load and the older store with sequence store.
func traceLoad(t *testing.T, p *Processor, store, load uint64) mobTrace {
	t.Helper()
	lid, sid := int32(load%p.slabN), int32(store%p.slabN)
	var tr mobTrace
	inWindow := false
	for !p.Done() {
		p.Step()
		now := p.cycle
		lop, sop := &p.slab[lid], &p.slab[sid]
		if !lop.inUse || lop.u.Seq != load || sop.u.Seq != store {
			continue
		}
		tr.loadCluster, tr.storeCluster = int(lop.cluster), int(sop.cluster)
		mob := p.clusters[tr.loadCluster].Mob
		if s, at, blocked := mob.PendingStore(load, now); blocked && s == store && at != backend.NeverReady {
			tr.arrives = at
		}
		if tr.released == 0 && !sop.inUse {
			tr.released = now
		}
		for _, m := range p.mobParked[tr.loadCluster].loads {
			if m.id != lid {
				continue
			}
			if m.until == backend.NeverReady {
				tr.parkedUnknown = true
			} else {
				tr.parkedUntil = m.until
			}
		}
		found := false
		for _, e := range p.clusters[tr.loadCluster].Queues[backend.MemQueue].Window() {
			if e.ID == lid {
				found = true
			}
		}
		if found {
			inWindow = true
		} else if inWindow && tr.issued == 0 {
			tr.issued = now
		}
	}
	if tr.issued == 0 {
		t.Fatal("the load never issued")
	}
	return tr
}

// The cycles at which the scheme before MOB parking, which re-polled a
// refused load every cycle, issued the load of remoteLoadOps(true) and
// remoteLoadOps(false).
const (
	pollIssueArrival = 96
	pollIssueRelease = 74
)

// remoteLoadOps is a store whose address comes from a three-op chain in
// cluster 0, followed by a load with no register source: load balance
// steers the load to another cluster, where the store's address arrives
// over the disambiguation bus.  With slowCommit, an older FP divide
// chain keeps the store from committing until long after the broadcast.
func remoteLoadOps(slowCommit bool) (ops []uop.MicroOp, store, load uint64) {
	if slowCommit {
		for i := 0; i < 5; i++ {
			ops = append(ops, uop.MicroOp{Class: uop.FPDiv, Src1: 16, Src2: 17, Dst: 18})
		}
	}
	for i := 0; i < 3; i++ {
		ops = append(ops, uop.MicroOp{Class: uop.IntALU, Src1: 1, Src2: uop.RegNone, Dst: 1})
	}
	store = uint64(len(ops))
	ops = append(ops,
		uop.MicroOp{Class: uop.Store, Src1: 1, Src2: 0, Dst: uop.RegNone, Addr: 0x7000},
		uop.MicroOp{Class: uop.Load, Src1: uop.RegNone, Src2: uop.RegNone, Dst: 3, Addr: 0x9000},
	)
	return ops, store, store + 1
}

// TestMOBParkRemoteAddressArrival: a load behind a store in another
// cluster parks behind the unknown address, wakes at the store's
// SetAddr, parks again until the broadcast lands, and issues at that
// cycle, the first one the poll it replaces would have let it pass.
func TestMOBParkRemoteAddressArrival(t *testing.T) {
	ops, store, load := remoteLoadOps(true)
	p := New(DefaultConfig(), script(ops))
	tr := traceLoad(t, p, store, load)
	if tr.loadCluster == tr.storeCluster {
		t.Fatalf("load and store both in cluster %d; the script must split them", tr.loadCluster)
	}
	if !tr.parkedUnknown {
		t.Error("the load never parked behind the unknown store address")
	}
	if tr.parkedUntil == 0 || tr.parkedUntil != tr.arrives {
		t.Errorf("the load parked until %d, the address arrives at %d", tr.parkedUntil, tr.arrives)
	}
	if tr.released <= tr.arrives {
		t.Fatalf("store released at %d, before its broadcast landed at %d", tr.released, tr.arrives)
	}
	if tr.issued != tr.arrives || tr.issued != pollIssueArrival {
		t.Errorf("load issued at cycle %d, want %d (the broadcast's arrival) and %d (the poll's)",
			tr.issued, tr.arrives, pollIssueArrival)
	}
	if p.Stats.Committed != uint64(len(ops)) {
		t.Fatalf("committed %d of %d", p.Stats.Committed, len(ops))
	}
}

// TestMOBParkWakesOnRelease: when the store commits before its
// broadcast reaches the load's cluster, it stops blocking there, and the
// load parked on the in-flight address wakes at that Release and issues
// in the same cycle.
func TestMOBParkWakesOnRelease(t *testing.T) {
	ops, store, load := remoteLoadOps(false)
	p := New(DefaultConfig(), script(ops))
	tr := traceLoad(t, p, store, load)
	if tr.loadCluster == tr.storeCluster {
		t.Fatalf("load and store both in cluster %d; the script must split them", tr.loadCluster)
	}
	if tr.parkedUntil == 0 {
		t.Fatal("the load never parked on the in-flight address")
	}
	if tr.released >= tr.parkedUntil {
		t.Fatalf("store released at %d, not before its broadcast lands at %d", tr.released, tr.parkedUntil)
	}
	if tr.issued != tr.released || tr.issued != pollIssueRelease {
		t.Errorf("load issued at cycle %d, want %d (the store's release) and %d (the poll's)",
			tr.issued, tr.released, pollIssueRelease)
	}
}
