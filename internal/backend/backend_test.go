package backend

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegFileReadiness(t *testing.T) {
	rf := NewRegFile(8)
	if rf.Size() != 8 {
		t.Fatalf("size = %d", rf.Size())
	}
	if rf.ReadyAt(3) != 0 {
		t.Fatal("fresh register not ready at 0")
	}
	rf.SetPending(3)
	if rf.ReadyAt(3) != NeverReady {
		t.Fatal("SetPending did not mark register")
	}
	rf.SetReady(3, 17)
	if rf.ReadyAt(3) != 17 {
		t.Fatalf("ReadyAt = %d", rf.ReadyAt(3))
	}
	rf.CountRead()
	if rf.Writes != 1 || rf.Reads != 1 {
		t.Fatalf("counters = %d/%d", rf.Reads, rf.Writes)
	}
}

func TestQueueDispatchAdvanceIssue(t *testing.T) {
	q := NewIssueQueue(IntQueue, 4, 2)
	if n := q.Free(); n != 2 {
		t.Fatalf("fresh queue has %d free prescheduler slots, want 2", n)
	}
	ok := q.Dispatch(QueueEntry{ID: 1, Seq: 1}, 10)
	if !ok {
		t.Fatal("dispatch failed")
	}
	q.Advance(5)
	if q.WindowOccupancy() != 0 {
		t.Fatal("entry reached window early")
	}
	q.Advance(10)
	if q.WindowOccupancy() != 1 {
		t.Fatal("entry did not reach window")
	}
	if id := q.RemoveIssued(0); id != 1 {
		t.Fatalf("issued id %d, want 1", id)
	}
	if q.WindowOccupancy() != 0 || len(q.Window()) != 0 {
		t.Fatal("issued entry still in the window")
	}
	if q.IssueCount != 1 {
		t.Fatalf("IssueCount = %d", q.IssueCount)
	}
	if q.Writes != 2 {
		t.Fatalf("Writes = %d, want 2 (prescheduler insert + window insert)", q.Writes)
	}
}

// The core's select issues the oldest entry by Seq wherever it sits, and
// RemoveIssued closes the gap with the last entry.
func TestQueueOldestFirst(t *testing.T) {
	q := NewIssueQueue(IntQueue, 8, 8)
	q.Dispatch(QueueEntry{ID: 10, Seq: 5}, 0)
	q.Dispatch(QueueEntry{ID: 11, Seq: 2}, 0)
	q.Dispatch(QueueEntry{ID: 12, Seq: 9}, 0)
	q.Advance(0)
	win := q.Window()
	oldest := 0
	for i := range win {
		if win[i].Seq < win[oldest].Seq {
			oldest = i
		}
	}
	if id := q.RemoveIssued(oldest); id != 11 {
		t.Fatalf("issued %d, want oldest (11)", id)
	}
	win = q.Window()
	if len(win) != 2 || win[0].ID != 10 || win[1].ID != 12 {
		t.Fatalf("window after issue = %+v, want ids 10, 12", win)
	}
}

// NotBefore written through Window survives the compaction of an issue,
// and Advance reopens the scan (WakeAt 0) when a new entry arrives.
func TestQueueSkipsNotReady(t *testing.T) {
	q := NewIssueQueue(IntQueue, 8, 8)
	q.Dispatch(QueueEntry{ID: 1, Seq: 1}, 0)
	q.Dispatch(QueueEntry{ID: 2, Seq: 2}, 0)
	q.Dispatch(QueueEntry{ID: 3, Seq: 3}, 5)
	q.Advance(0)
	win := q.Window()
	win[1].NotBefore = NeverReady // parked
	q.WakeAt = 100
	if id := q.RemoveIssued(0); id != 1 {
		t.Fatalf("issued %d, want 1", id)
	}
	if e := q.Window()[0]; e.ID != 2 || e.NotBefore != NeverReady {
		t.Fatalf("entry after issue = %+v, want id 2 still parked", e)
	}
	q.Advance(4)
	if q.WakeAt != 100 {
		t.Fatalf("WakeAt = %d after an Advance that moved nothing", q.WakeAt)
	}
	q.Advance(5)
	if q.WakeAt != 0 {
		t.Fatalf("WakeAt = %d after a new entry arrived, want 0", q.WakeAt)
	}
}

// Park takes an entry off the scanned part of the window and Wake puts
// it back, lowering WakeAt; NextArrival is the prescheduler head's
// arrival only while the window has room.
func TestQueueParkWake(t *testing.T) {
	q := NewIssueQueue(IntQueue, 3, 4)
	for i := int32(1); i <= 4; i++ {
		q.Dispatch(QueueEntry{ID: i, Seq: uint64(i)}, uint64(i))
	}
	if got := q.NextArrival(); got != 1 {
		t.Fatalf("NextArrival = %d, want 1", got)
	}
	q.Advance(3)
	if got := q.NextArrival(); got != NeverReady {
		t.Fatalf("NextArrival = %d with the window full, want NeverReady", got)
	}
	q.Park(0) // entry 1
	if act := q.Active(); len(act) != 2 || act[0].ID == 1 || act[1].ID == 1 {
		t.Fatalf("active %+v after parking entry 1", act)
	}
	if q.Wake(2, 7) {
		t.Fatal("Wake found entry 2, which is not parked")
	}
	q.WakeAt = 100
	if !q.Wake(1, 9) {
		t.Fatal("Wake did not find parked entry 1")
	}
	act := q.Active()
	if len(act) != 3 || q.WakeAt != 9 {
		t.Fatalf("active %+v, WakeAt %d after the wake; want 3 entries and 9", act, q.WakeAt)
	}
	for _, e := range act {
		if e.ID == 1 && e.NotBefore != 9 {
			t.Fatalf("woken entry NotBefore %d, want 9", e.NotBefore)
		}
	}
	parked, issued, kept := act[1].ID, act[0].ID, act[2].ID
	q.Park(1)
	if id := q.RemoveIssued(0); id != issued {
		t.Fatalf("issued %d, want %d", id, issued)
	}
	if q.WindowOccupancy() != 2 || len(q.Active()) != 1 || q.NextArrival() != 4 {
		t.Fatalf("after an issue: window %+v, %d active, NextArrival %d; want 2, 1, 4",
			q.Window(), len(q.Active()), q.NextArrival())
	}
	// The issue moved the parked entry into the freed slot: it stays
	// parked and wakes.
	if q.Active()[0].ID != kept || !q.Wake(parked, 11) || len(q.Active()) != 2 {
		t.Fatalf("after an issue and a wake: window %+v, active %+v", q.Window(), q.Active())
	}
}

func TestQueueCountWakeups(t *testing.T) {
	q := NewIssueQueue(MemQueue, 4, 4)
	q.CountWakeups(3)
	q.CountWakeups(0)
	q.CountWakeups(4)
	if q.Reads != 7 || q.Writes != 0 {
		t.Fatalf("Reads/Writes = %d/%d, want 7/0", q.Reads, q.Writes)
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := NewIssueQueue(IntQueue, 1, 2)
	q.Dispatch(QueueEntry{ID: 1, Seq: 1}, 0)
	q.Dispatch(QueueEntry{ID: 2, Seq: 2}, 0)
	if n := q.Free(); n != 0 {
		t.Fatalf("full prescheduler has %d free slots", n)
	}
	if q.Dispatch(QueueEntry{ID: 3, Seq: 3}, 0) {
		t.Fatal("dispatch into full prescheduler")
	}
	q.Advance(0)
	if q.WindowOccupancy() != 1 {
		t.Fatalf("window occupancy = %d, want 1 (capacity)", q.WindowOccupancy())
	}
	// One entry remains stuck in the prescheduler until the window drains.
	if n := q.Free(); n != 1 {
		t.Fatalf("prescheduler has %d free slots after one advanced, want 1", n)
	}
	if q.Occupancy() != 2 {
		t.Fatalf("occupancy = %d", q.Occupancy())
	}
}

func TestMOBDisambiguation(t *testing.T) {
	m := NewMOB(8)
	m.Alloc(1, true) // store, address unknown
	m.Alloc(2, false)
	// Load 2 cannot issue: older store address unknown.
	if ok, _ := m.Disambiguate(2, 0x40, 5); ok {
		t.Fatal("load issued past unknown store address")
	}
	m.SetAddr(1, 0x40, 4)
	ok, fwd := m.Disambiguate(2, 0x40, 5)
	if !ok || !fwd {
		t.Fatalf("disambiguate = %v,%v; want forwarding hit", ok, fwd)
	}
	ok, fwd = m.Disambiguate(2, 0x80, 5)
	if !ok || fwd {
		t.Fatalf("different line: = %v,%v; want ok, no forward", ok, fwd)
	}
	// Not yet visible at cycle 3.
	if ok, _ := m.Disambiguate(2, 0x40, 3); ok {
		t.Fatal("address visible before broadcast arrival")
	}
}

func TestMOBBlockedByUnknown(t *testing.T) {
	m := NewMOB(8)
	m.Alloc(1, false)
	m.Alloc(2, true) // store, address unknown
	m.Alloc(3, false)
	m.Alloc(4, true) // a second unknown store
	if m.BlockedByUnknown(1) || m.BlockedByUnknown(2) {
		t.Fatal("an op no younger than the oldest unknown store is blocked")
	}
	if !m.BlockedByUnknown(3) {
		t.Fatal("load 3 not blocked by store 2's unknown address")
	}
	m.SetAddr(2, 0x40, 10) // store 2's address arrives; store 4 still unknown
	if m.BlockedByUnknown(3) {
		t.Fatal("load 3 still blocked once the only older store has an address")
	}
	if !m.BlockedByUnknown(5) {
		t.Fatal("load 5 not blocked by store 4's unknown address")
	}
	m.Release(4) // a store leaving unknown stops blocking too
	if m.BlockedByUnknown(5) {
		t.Fatal("load 5 still blocked after the unknown store left")
	}
	// Disambiguate's refusal is exactly BlockedByUnknown when no address
	// arrives late.
	for seq := uint64(1); seq <= 5; seq++ {
		ok, _ := m.Disambiguate(seq, 0x80, 20)
		if ok == m.BlockedByUnknown(seq) {
			t.Fatalf("seq %d: Disambiguate ok=%v with BlockedByUnknown=%v", seq, ok, m.BlockedByUnknown(seq))
		}
	}
}

// TestQueueEntrySize pins the window entry at three words, the most
// entries per cache line the core's per-cycle scan can read.
func TestQueueEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(QueueEntry{}); got != 24 {
		t.Fatalf("QueueEntry is %d bytes, want 24", got)
	}
}

// TestMOBPendingStore pins the issue select's disambiguation question:
// the oldest older store whose address has not arrived by now, which
// stops blocking when its address lands or it leaves.
func TestMOBPendingStore(t *testing.T) {
	m := NewMOB(8)
	m.Alloc(1, true)
	m.Alloc(2, false)
	m.Alloc(3, true)
	m.Alloc(4, false)
	if s, at, blocked := m.PendingStore(4, 0); !blocked || s != 1 || at != NeverReady {
		t.Fatalf("PendingStore(4) = %d,%d,%v; want store 1 unknown", s, at, blocked)
	}
	if _, _, blocked := m.PendingStore(1, 0); blocked {
		t.Fatal("a store blocks itself")
	}
	m.SetAddr(1, 0x40, 10)
	m.SetAddr(3, 0x80, 12)
	if s, at, blocked := m.PendingStore(4, 9); !blocked || s != 1 || at != 10 {
		t.Fatalf("PendingStore(4, 9) = %d,%d,%v; want store 1 arriving at 10", s, at, blocked)
	}
	if s, at, blocked := m.PendingStore(4, 10); !blocked || s != 3 || at != 12 {
		t.Fatalf("PendingStore(4, 10) = %d,%d,%v; want store 3 arriving at 12", s, at, blocked)
	}
	if _, _, blocked := m.PendingStore(2, 10); blocked {
		t.Fatal("load 2 blocked by a younger store")
	}
	m.Release(3) // committed before its address landed: no longer blocks
	if _, _, blocked := m.PendingStore(4, 10); blocked {
		t.Fatal("a released store still blocks")
	}
	// PendingStore refuses exactly where Disambiguate does.
	for seq := uint64(1); seq <= 4; seq++ {
		for now := uint64(8); now <= 13; now++ {
			ok, _ := m.Disambiguate(seq, 0x40, now)
			if _, _, blocked := m.PendingStore(seq, now); ok == blocked {
				t.Fatalf("seq %d at %d: Disambiguate ok=%v, PendingStore blocked=%v", seq, now, ok, blocked)
			}
		}
	}
}

func TestMOBReleaseOrder(t *testing.T) {
	m := NewMOB(3)
	m.Alloc(1, true)
	m.Alloc(2, false)
	m.Alloc(3, true)
	if m.CanAlloc() {
		t.Fatal("MOB over capacity")
	}
	m.Release(2) // load in the middle finishes first
	if m.Occupancy() != 3 {
		t.Fatal("capacity freed out of order")
	}
	m.Release(1)
	if m.Occupancy() != 1 {
		t.Fatalf("occupancy = %d after head release, want 1", m.Occupancy())
	}
	if !m.CanAlloc() {
		t.Fatal("MOB did not free capacity")
	}
}

func TestMOBStoresDoNotBlockOlderLoads(t *testing.T) {
	m := NewMOB(8)
	m.Alloc(5, true)
	if ok, _ := m.Disambiguate(3, 0x40, 0); !ok {
		t.Fatal("younger store blocked an older load")
	}
}

func TestMOBOutOfOrderAllocPanics(t *testing.T) {
	m := NewMOB(8)
	m.Alloc(5, true)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order MOB alloc did not panic")
		}
	}()
	m.Alloc(3, false)
}

func TestFUUnpipelined(t *testing.T) {
	var f FU
	if !f.TryStart(10, 20, false) {
		t.Fatal("idle divider refused work")
	}
	if f.TryStart(15, 20, false) {
		t.Fatal("busy divider accepted work")
	}
	if !f.TryStart(30, 20, false) {
		t.Fatal("freed divider refused work")
	}
	// Pipelined ops always start.
	if !f.TryStart(31, 4, true) || !f.TryStart(31, 4, true) {
		t.Fatal("pipelined unit refused work")
	}
	if f.Ops != 4 {
		t.Fatalf("Ops = %d", f.Ops)
	}
}

func TestNewClusterTable1(t *testing.T) {
	c := NewCluster(2, Config{
		IntRegs: 160, FPRegs: 160, IntQ: 40, FPQ: 40, CopyQ: 40, MemQ: 96,
		Prescheduler: 20, MOBEntries: 96,
	})
	if c.Index != 2 {
		t.Fatalf("index = %d", c.Index)
	}
	if c.IntRF.Size() != 160 || c.FPRF.Size() != 160 {
		t.Fatal("register file sizes wrong")
	}
	for k := QueueKind(0); k < NumQueues; k++ {
		if c.Queues[k] == nil || c.Queues[k].Kind() != k {
			t.Fatalf("queue %v missing or mislabelled", k)
		}
	}
	if IntQueue.String() != "IQ" || MemQueue.String() != "MemQ" {
		t.Fatal("queue names wrong")
	}
}

func TestBadSizesPanic(t *testing.T) {
	cases := []func(){
		func() { NewIssueQueue(IntQueue, 0, 4) },
		func() { NewIssueQueue(IntQueue, 4, 0) },
		func() { NewMOB(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: a queue never holds more than capacity+prescap entries and
// issue drains exactly what was dispatched.
func TestQuickQueueConservation(t *testing.T) {
	q := NewIssueQueue(FPQueue, 4, 4)
	dispatched, issued := 0, 0
	now := uint64(0)
	f := func(doIssue bool) bool {
		now++
		if doIssue {
			q.Advance(now)
			if q.WindowOccupancy() > 0 {
				q.RemoveIssued(0)
				issued++
			}
		} else if q.Dispatch(QueueEntry{ID: int32(dispatched), Seq: uint64(dispatched)}, now) {
			dispatched++
		}
		return q.Occupancy() == dispatched-issued && q.Occupancy() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: disambiguation is monotone in time — once a load may issue it
// may issue at any later cycle (with no new stores).
func TestQuickDisambiguationMonotone(t *testing.T) {
	m := NewMOB(16)
	m.Alloc(1, true)
	m.Alloc(4, true)
	m.SetAddr(1, 0x100, 3)
	m.SetAddr(4, 0x200, 7)
	f := func(t1, t2 uint16) bool {
		a, b := uint64(t1), uint64(t2)
		if a > b {
			a, b = b, a
		}
		okA, _ := m.Disambiguate(9, 0x300, a)
		okB, _ := m.Disambiguate(9, 0x300, b)
		return !okA || okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
