package core

import (
	"testing"

	"repro/internal/uop"
)

// drainCycle returns cycle now's events in drain order.
func drainCycle(q *eventQueue, now uint64) []int32 {
	return q.drainInto(now, nil)
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEventQueueFIFOWithinCycle pins the ordering guarantee the replaced
// binary heap never gave: events scheduled for the same cycle drain in
// push order.
func TestEventQueueFIFOWithinCycle(t *testing.T) {
	var q eventQueue
	q.initEventQueue(16, 32)
	order := []int32{9, 3, 27, 0, 14}
	for _, id := range order {
		q.push(5, id, 0)
	}
	q.push(4, 30, 0) // an earlier cycle must not disturb cycle 5's order
	if got := drainCycle(&q, 4); !equalIDs(got, []int32{30}) {
		t.Fatalf("cycle 4 drained %v", got)
	}
	if got := drainCycle(&q, 5); !equalIDs(got, order) {
		t.Fatalf("cycle 5 drained %v, want push order %v", got, order)
	}
	if q.count != 0 {
		t.Fatalf("count = %d after draining everything", q.count)
	}
	if got := drainCycle(&q, 6); len(got) != 0 {
		t.Fatalf("empty cycle drained %v", got)
	}
}

// TestEventQueueOverflowMigration pins the beyond-horizon path: events
// past the ring spill to the overflow list, migrate once the drain
// cursor comes within the horizon, and still drain at their exact cycle
// in global push order (overflow arrivals precede the in-horizon pushes
// that can only happen later).
func TestEventQueueOverflowMigration(t *testing.T) {
	var q eventQueue
	q.initEventQueue(8, 32)
	if q.horizon() != 8 {
		t.Fatalf("horizon = %d, want 8", q.horizon())
	}
	q.push(20, 1, 0) // 20 cycles out: overflow
	q.push(20, 2, 0)
	q.push(3, 0, 0) // in-horizon
	if q.ovCount != 2 {
		t.Fatalf("overflow count = %d, want 2", q.ovCount)
	}
	var got []int32
	for now := uint64(1); now <= 19; now++ {
		// Drain first, push after — the order Step imposes.
		got = append(got, drainCycle(&q, now)...)
		if now == 13 {
			// The drain at cycle 13 migrated the overflow events; a
			// same-cycle push afterwards must land behind them.
			q.push(20, 3, now)
		}
	}
	if !equalIDs(got, []int32{0}) {
		t.Fatalf("cycles 1-19 drained %v, want [0]", got)
	}
	if got := drainCycle(&q, 20); !equalIDs(got, []int32{1, 2, 3}) {
		t.Fatalf("cycle 20 drained %v, want [1 2 3]", got)
	}
	if q.count != 0 || q.ovCount != 0 {
		t.Fatalf("count=%d overflow=%d after drain", q.count, q.ovCount)
	}
}

// TestEventQueuePastPushPanics pins the protocol: completion events are
// always scheduled strictly after the cycle that produces them.
// TestEventQueueNextBusy pins the skip's view of the queue: the next
// non-empty bucket, the cycle the earliest overflow event migrates, and
// the caller's limit when neither comes first.
func TestEventQueueNextBusy(t *testing.T) {
	var q eventQueue
	q.initEventQueue(8, 32)
	if got := q.nextBusy(0, 100); got != 100 {
		t.Fatalf("empty queue: nextBusy = %d, want the limit", got)
	}
	q.push(30, 1, 0) // overflow: migrates at 30-8+1 = 23
	if got := q.nextBusy(0, 100); got != 23 {
		t.Fatalf("overflow only: nextBusy = %d, want its migration cycle 23", got)
	}
	q.push(5, 2, 0)
	for _, c := range []struct{ now, limit, want uint64 }{
		{0, 100, 5}, {0, 4, 4}, {0, 5, 5},
	} {
		if got := q.nextBusy(c.now, c.limit); got != c.want {
			t.Errorf("nextBusy(%d, %d) = %d, want %d", c.now, c.limit, got, c.want)
		}
	}
	drainCycle(&q, 5)
	if got := q.nextBusy(5, 100); got != 23 {
		t.Fatalf("after the drain: nextBusy = %d, want 23", got)
	}
	if got := drainCycle(&q, 23); len(got) != 0 || q.ovCount != 0 {
		t.Fatalf("cycle 23 drained %v, %d left in overflow", got, q.ovCount)
	}
	if got := q.nextBusy(23, 100); got != 30 {
		t.Fatalf("after migrating: nextBusy = %d, want 30", got)
	}
}

func TestEventQueuePastPushPanics(t *testing.T) {
	var q eventQueue
	q.initEventQueue(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("push at the current cycle did not panic")
		}
	}()
	q.push(5, 0, 5)
}

// TestIdenticalRunsIdenticalCycles is the determinism regression for the
// bucket queue: with same-cycle completion order now specified (FIFO),
// two identical runs must produce identical statistics, event-queue
// counters included.
func TestIdenticalRunsIdenticalCycles(t *testing.T) {
	for _, mode := range []string{"base", "dist"} {
		cfg := DefaultConfig()
		if mode == "dist" {
			cfg = cfg.WithDistributedFrontend(2)
		}
		a := runBench(t, cfg, "gzip", 25000)
		b := runBench(t, cfg, "gzip", 25000)
		if a.Stats != b.Stats {
			t.Fatalf("%s: non-deterministic stats:\n%+v\n%+v", mode, a.Stats, b.Stats)
		}
		if a.Stats.EventPushes == 0 || a.Stats.EventPushes != a.Stats.EventPops {
			t.Fatalf("%s: event counters inconsistent: %d pushes, %d pops",
				mode, a.Stats.EventPushes, a.Stats.EventPops)
		}
	}
}

// TestStoreWakeupEliminatesPolling is the counter-verified event-storm
// gate: on the throughput benchmark's gzip run, the wakeup lists must
// cut event pushes at least 10x against the poll-based scheme (whose
// push count the StorePollsAvoided counter reconstructs).
func TestStoreWakeupEliminatesPolling(t *testing.T) {
	p := runBench(t, DefaultConfig(), "gzip", 50000)
	s := p.Stats
	if s.StoreWakeups == 0 {
		t.Fatal("gzip run produced no store wakeups")
	}
	oldPushes := s.EventPushes + s.StorePollsAvoided
	if oldPushes < 10*s.EventPushes {
		t.Fatalf("event pushes dropped only %.1fx (%d now vs ~%d with polling), want >= 10x",
			float64(oldPushes)/float64(s.EventPushes), s.EventPushes, oldPushes)
	}
	t.Logf("pushes %d, pops %d, wakeups %d, polls avoided %d (%.1fx reduction)",
		s.EventPushes, s.EventPops, s.StoreWakeups, s.StorePollsAvoided,
		float64(oldPushes)/float64(s.EventPushes))
}

// TestParkedEntriesSkipReadyEvals is the issue-select counterpart: on the
// same gzip run, the queues' Reads — every entry the poll scheme
// evaluated, parked ones included — must be at least 4x the evaluations
// the parked select counts.  A drained run leaves nothing parked, on a
// register or on a MOB.
func TestParkedEntriesSkipReadyEvals(t *testing.T) {
	p := runBench(t, DefaultConfig(), "gzip", 50000)
	var reads uint64
	for _, c := range p.clusters {
		for _, q := range c.Queues {
			reads += q.Reads
		}
	}
	evals := p.Stats.ReadyEvals
	if evals == 0 {
		t.Fatal("gzip run made no ready evaluations")
	}
	if reads < 4*evals {
		t.Fatalf("queue reads %d are only %.1fx the %d ready evaluations, want >= 4x",
			reads, float64(reads)/float64(evals), evals)
	}
	for qi, s := range p.queues {
		if s.parked != 0 || s.polled != 0 {
			t.Fatalf("queue %d still counts %d entries parked on a register and %d on a divider or MOB after drain",
				qi, s.parked, s.polled)
		}
	}
	for cl, mp := range p.mobParked {
		if len(mp.loads) != 0 {
			t.Fatalf("cluster %d still holds %d loads parked on its MOB after drain", cl, len(mp.loads))
		}
	}
	t.Logf("queue reads %d, ready evals %d (%.1fx)", reads, evals, float64(reads)/float64(evals))
}

// TestStoreDataReadyBoundarySweep sweeps the race between a store's
// address half and its data producer across the subscription boundary:
// producer chains of increasing length make the data arrive before,
// exactly at, and after the address completes (and before/after the
// store even issues).  Every variant must drain fully and run
// bit-deterministically.
func TestStoreDataReadyBoundarySweep(t *testing.T) {
	for lag := 0; lag <= 12; lag++ {
		run := func() *Processor {
			ops := []uop.MicroOp{}
			for i := 0; i < lag; i++ {
				// Serial chain into r5: each link delays the data operand
				// by one more cycle relative to the store's address.
				ops = append(ops, uop.MicroOp{Class: uop.IntALU, Src1: 5, Src2: uop.RegNone, Dst: 5})
			}
			ops = append(ops,
				uop.MicroOp{Class: uop.Store, Src1: 0, Src2: 5, Dst: uop.RegNone, Addr: 0x4000},
				uop.MicroOp{Class: uop.Load, Src1: 0, Src2: uop.RegNone, Dst: 3, Addr: 0x4000},
				uop.MicroOp{Class: uop.IntALU, Src1: 3, Src2: uop.RegNone, Dst: 4},
			)
			p := New(DefaultConfig(), script(ops))
			p.Run(0)
			if !p.Done() {
				t.Fatalf("lag %d: machine did not drain", lag)
			}
			if p.Stats.Committed != uint64(lag+3) {
				t.Fatalf("lag %d: committed %d of %d", lag, p.Stats.Committed, lag+3)
			}
			return p
		}
		a, b := run(), run()
		if a.Stats != b.Stats {
			t.Fatalf("lag %d: non-deterministic stats:\n%+v\n%+v", lag, a.Stats, b.Stats)
		}
	}
}

// TestStoreWakeupLateProducer pins the subscription path itself: a store
// whose data producer issues long after the store's address half must
// complete via a producer wakeup (not a poll), at a cycle no later than
// the old poll cadence would have found, and commit.
func TestStoreWakeupLateProducer(t *testing.T) {
	ops := []uop.MicroOp{
		// Serial FPDiv chain: the last divide issues ~3 divide latencies
		// after dispatch, well past the store's address half (even with
		// its compulsory DTLB miss).
		{Class: uop.FPDiv, Src1: 16, Src2: 17, Dst: 18},
		{Class: uop.FPDiv, Src1: 18, Src2: 17, Dst: 19},
		{Class: uop.FPDiv, Src1: 19, Src2: 17, Dst: 20},
		{Class: uop.Store, Src1: 0, Src2: 20, Dst: uop.RegNone, Addr: 0x5000},
		{Class: uop.IntALU, Src1: 1, Src2: uop.RegNone, Dst: 2},
	}
	p := New(DefaultConfig(), script(ops))
	p.Run(0)
	if p.Stats.Committed != uint64(len(ops)) {
		t.Fatalf("committed %d of %d", p.Stats.Committed, len(ops))
	}
	if p.Stats.StoreWakeups == 0 {
		t.Fatal("late-producer store completed without a wakeup")
	}
	if p.Stats.StorePollsAvoided == 0 {
		t.Fatal("no polls counted as avoided for a late producer")
	}
}

// TestWaitingStoreWithDstWritesBack pins the degenerate store-with-dst
// semantics across the wakeup rewrite: stores in the real op stream
// never define a register, but when a scripted one does, the poll scheme
// wrote the destination back when the address half finished even while
// completion waited on the data — so a consumer of that register must
// not deadlock behind a subscribed store.
func TestWaitingStoreWithDstWritesBack(t *testing.T) {
	ops := []uop.MicroOp{
		{Class: uop.IntALU, Src1: 5, Src2: uop.RegNone, Dst: 5},
		{Class: uop.IntALU, Src1: 5, Src2: uop.RegNone, Dst: 5},
		{Class: uop.Store, Src1: 0, Src2: 5, Dst: 6, Addr: 0x4000},
		{Class: uop.IntALU, Src1: 6, Src2: uop.RegNone, Dst: 4},
	}
	p := New(DefaultConfig(), script(ops))
	p.Run(0)
	if !p.Done() || p.Stats.Committed != uint64(len(ops)) {
		t.Fatalf("committed %d of %d (consumer of the store's dst starved)",
			p.Stats.Committed, len(ops))
	}
}

// TestStoreWakeupWithRedirect covers the completeOp interplay the old
// poll re-arm path could starve: a mispredicted branch resolving while a
// store sits subscribed to its data producer.  The redirect must unblock
// fetch (later traces commit) and the store must still complete.
func TestStoreWakeupWithRedirect(t *testing.T) {
	ops := []uop.MicroOp{
		{Class: uop.FPDiv, Src1: 16, Src2: 17, Dst: 18},
		{Class: uop.FPDiv, Src1: 18, Src2: 17, Dst: 19},
		{Class: uop.Store, Src1: 0, Src2: 19, Dst: uop.RegNone, Addr: 0x6000},
		{Class: uop.IntALU, Src1: 1, Src2: uop.RegNone, Dst: 2},
		{Class: uop.Branch, Src1: 2, Src2: uop.RegNone, Dst: uop.RegNone, Mispred: true},
	}
	for i := 0; i < 12; i++ {
		ops = append(ops, uop.MicroOp{Class: uop.IntALU, Src1: 3, Src2: uop.RegNone, Dst: 3})
	}
	p := New(DefaultConfig(), script(ops))
	p.Run(0)
	if p.Stats.Committed != uint64(len(ops)) {
		t.Fatalf("committed %d of %d (redirect or wakeup lost)", p.Stats.Committed, len(ops))
	}
	if p.Stats.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d, want 1", p.Stats.Mispredicts)
	}
	if p.Stats.StoreWakeups == 0 {
		t.Fatal("store completed without a wakeup")
	}
}
