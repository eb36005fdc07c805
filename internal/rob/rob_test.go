package rob

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCentralizedInOrderCommit(t *testing.T) {
	r := New(1, 8)
	var refs []Ref
	for i := int32(0); i < 5; i++ {
		ref, ok := r.Alloc(0, i)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		refs = append(refs, ref)
	}
	// Complete out of order; commit must stay in order.
	r.Complete(refs[1])
	if out := r.Commit(8, nil); len(out) != 0 {
		t.Fatalf("committed %v before head ready", out)
	}
	r.Complete(refs[0])
	out := r.Commit(8, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("committed %v, want [0 1]", out)
	}
	r.Complete(refs[3])
	if out := r.Commit(8, nil); len(out) != 0 {
		t.Fatalf("committed %v past incomplete entry 2", out)
	}
	r.Complete(refs[2])
	r.Complete(refs[4])
	out = r.Commit(8, nil)
	if len(out) != 3 || out[0] != 2 || out[2] != 4 {
		t.Fatalf("committed %v, want [2 3 4]", out)
	}
}

func TestCommitBandwidthLimit(t *testing.T) {
	r := New(1, 16)
	for i := int32(0); i < 10; i++ {
		ref, _ := r.Alloc(0, i)
		r.Complete(ref)
	}
	out := r.Commit(4, nil)
	if len(out) != 4 {
		t.Fatalf("committed %d, want 4 (bandwidth)", len(out))
	}
	out = r.Commit(4, out[:0])
	if len(out) != 4 || out[0] != 4 {
		t.Fatalf("second commit %v", out)
	}
}

func TestFullPartitionStallsAlloc(t *testing.T) {
	r := New(1, 2)
	r.Alloc(0, 0)
	r.Alloc(0, 1)
	if r.CanAlloc(0) {
		t.Fatal("CanAlloc true on full partition")
	}
	if _, ok := r.Alloc(0, 2); ok {
		t.Fatal("alloc succeeded on full partition")
	}
	if r.Stats.FullStall != 1 {
		t.Fatalf("FullStall = %d", r.Stats.FullStall)
	}
}

func TestDistributedFigure8Walk(t *testing.T) {
	// Reproduces the walk of Figure 8: two partitions, interleaved
	// program order, commit bandwidth 4.  Program order (partition):
	// I0(F0) I1(F1) I2(F1) I3(F0) I4(F0) I5(F0) ...
	// With I0..I2 and I4 ready but I3 not ready, exactly 3 commit.
	r := New(2, 8)
	seq := []struct {
		part  int
		ready bool
	}{
		{0, true},  // I0
		{1, true},  // I1
		{1, true},  // I2
		{0, false}, // I3 (not ready: commit must stop here)
		{0, true},  // I4
	}
	var refs []Ref
	for i, s := range seq {
		ref, ok := r.Alloc(s.part, int32(i))
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		refs = append(refs, ref)
	}
	for i, s := range seq {
		if s.ready {
			r.Complete(refs[i])
		}
	}
	out := r.Commit(4, nil)
	if len(out) != 3 || out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("committed %v, want [0 1 2]", out)
	}
	// Making I3 ready releases the rest.
	r.Complete(refs[3])
	out = r.Commit(4, nil)
	if len(out) != 2 || out[0] != 3 || out[1] != 4 {
		t.Fatalf("committed %v, want [3 4]", out)
	}
}

func TestDistributedProgramOrderProperty(t *testing.T) {
	// Random steering and completion order must still commit 0,1,2,...
	src := rng.New(99)
	r := New(2, 64)
	const n = 500
	var refs []Ref
	next := int32(0)
	committed := []int32{}
	pending := map[int]bool{}
	for len(committed) < n {
		// Randomly allocate if space, complete random pending, commit.
		if next < n && src.Bool(0.6) {
			p := src.Intn(2)
			if ref, ok := r.Alloc(p, next); ok {
				refs = append(refs, ref)
				pending[int(next)] = true
				next++
			}
		}
		if len(pending) > 0 && src.Bool(0.7) {
			// Complete a random pending instruction.
			k := src.Intn(len(pending))
			for id := range pending {
				if k == 0 {
					r.Complete(refs[id])
					delete(pending, id)
					break
				}
				k--
			}
		}
		committed = r.Commit(8, committed)
	}
	for i, id := range committed {
		if id != int32(i) {
			t.Fatalf("commit order broken at %d: got %d", i, id)
		}
	}
	if r.Occupancy() != 0 {
		t.Fatalf("ROB not empty at end: %d", r.Occupancy())
	}
}

func TestWalkReadsCounted(t *testing.T) {
	r := New(2, 8)
	ref, _ := r.Alloc(0, 0)
	r.Complete(ref)
	r.Commit(8, nil)
	if r.Stats.WalkReads == 0 {
		t.Fatal("walk reads not counted")
	}
	if r.Stats.Commits != 1 || r.Stats.Allocs != 1 || r.Stats.Completes != 1 {
		t.Fatalf("stats = %+v", r.Stats)
	}
}

func TestHead(t *testing.T) {
	r := New(2, 8)
	if _, ok := r.Head(); ok {
		t.Fatal("Head on empty ROB")
	}
	r.Alloc(1, 42)
	if id, ok := r.Head(); !ok || id != 42 {
		t.Fatalf("Head = %d,%v", id, ok)
	}
}

func TestEmptyThenRefill(t *testing.T) {
	r := New(2, 4)
	ref, _ := r.Alloc(1, 7)
	r.Complete(ref)
	if out := r.Commit(8, nil); len(out) != 1 || out[0] != 7 {
		t.Fatalf("commit = %v", out)
	}
	// Refill starting in the other partition; the chain must restart.
	ref2, _ := r.Alloc(0, 8)
	r.Complete(ref2)
	if out := r.Commit(8, nil); len(out) != 1 || out[0] != 8 {
		t.Fatalf("commit after refill = %v", out)
	}
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ parts, entries int }{{0, 4}, {300, 4}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.parts, c.entries)
				}
			}()
			New(c.parts, c.entries)
		}()
	}
}

func TestCompleteDeadPanics(t *testing.T) {
	r := New(1, 4)
	ref, _ := r.Alloc(0, 0)
	r.Complete(ref)
	r.Commit(1, nil)
	defer func() {
		if recover() == nil {
			t.Error("Complete on committed entry did not panic")
		}
	}()
	r.Complete(ref)
}

// Property: occupancy == allocs - commits at every point, and never
// exceeds capacity.
func TestQuickOccupancyInvariant(t *testing.T) {
	r := New(4, 16)
	var refs []Ref
	nextID := int32(0)
	f := func(part uint8, doCommit bool) bool {
		if doCommit {
			for _, ref := range refs {
				r.Complete(ref)
			}
			refs = refs[:0]
			r.Commit(64, nil)
		} else {
			if ref, ok := r.Alloc(int(part%4), nextID); ok {
				refs = append(refs, ref)
				nextID++
			}
		}
		occ := r.Occupancy()
		return occ == int(r.Stats.Allocs-r.Stats.Commits) && occ <= r.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestChargeStalledWalksMatchesCommit checks the bulk charge against the
// Commit calls it stands for: n walks that each stop at a waiting head
// read its R bit once, in the head's partition, and an empty ROB reads
// nothing.
func TestChargeStalledWalksMatchesCommit(t *testing.T) {
	polled, charged := New(2, 4), New(2, 4)
	charged.ChargeStalledWalks(5)
	for i := 0; i < 5; i++ {
		polled.Commit(4, nil)
	}
	for _, r := range []*ROB{polled, charged} {
		r.Alloc(0, 0)
		r.Alloc(1, 1)
		if r.HeadCompleted() {
			t.Fatal("a fresh head reads as completed")
		}
		r.Complete(Ref{Part: 0, Slot: 0})
		if !r.HeadCompleted() {
			t.Fatal("a completed head reads as waiting")
		}
		r.Commit(4, nil) // retires 0, stops at 1 in partition 1
	}
	charged.ChargeStalledWalks(7)
	for i := 0; i < 7; i++ {
		polled.Commit(4, nil)
	}
	if polled.Stats != charged.Stats || polled.Part[0] != charged.Part[0] || polled.Part[1] != charged.Part[1] {
		t.Errorf("charged %+v %+v, polled %+v %+v", charged.Stats, charged.Part, polled.Stats, polled.Part)
	}
}
