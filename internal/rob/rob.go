// Package rob implements the reorder buffer in its conventional
// centralized form and in the distributed form proposed in Section 3.1.2
// of the paper.
//
// In the distributed organization each frontend partition owns a slice of
// the reorder buffer holding only the instructions steered to its
// backends.  Every entry carries, besides the usual ready-to-commit bit
// (R), a field L naming the partition that holds the *next* instruction in
// program order.  A special register points to the partition holding the
// oldest instruction; commit walks the R/L chain, hopping between
// partitions, until it finds a not-ready entry or exhausts the commit
// bandwidth (Figure 8 of the paper).  The centralized ROB is the
// single-partition special case of the same structure.
package rob

import "fmt"

// IDNone is returned in commit buffers' unused space.
const IDNone int32 = -1

// Ref is a stable handle to an allocated entry.
type Ref struct {
	Part int
	Slot int // index into the partition's backing array
}

// Stats counts ROB activity; the power model translates these into
// energy.  Walk reads are the extra R/L field reads performed by the
// distributed commit selection logic.
type Stats struct {
	Allocs    uint64
	Commits   uint64
	Completes uint64
	WalkReads uint64
	FullStall uint64 // allocation attempts rejected because a partition was full
}

// PartStats counts the activity of a single partition, so the power model
// can attribute energy to each physical ROB partition separately.
type PartStats struct {
	Allocs    uint64
	Commits   uint64
	Completes uint64
	WalkReads uint64
}

type entry struct {
	id        int32
	completed bool
	next      uint8
	hasNext   bool
	live      bool
}

type partition struct {
	ring  []entry
	head  int
	tail  int
	count int
}

func (p *partition) full() bool { return p.count == len(p.ring) }

// ROB is a reorder buffer with one or more partitions.
type ROB struct {
	parts   []partition
	cur     int  // partition holding the next instruction to commit
	curSet  bool // false until the first allocation
	last    Ref  // most recently allocated entry (tail of the L chain)
	hasLast bool
	total   int
	Stats   Stats
	// Part holds per-partition activity counters.
	Part []PartStats
}

// New builds a reorder buffer with the given number of partitions, each
// holding entriesPerPart instructions.  Use parts=1 for the centralized
// organization.
func New(parts, entriesPerPart int) *ROB {
	if parts < 1 || parts > 256 {
		panic("rob: partition count out of range")
	}
	if entriesPerPart < 1 {
		panic("rob: need at least one entry per partition")
	}
	r := &ROB{
		parts: make([]partition, parts),
		total: parts * entriesPerPart,
		Part:  make([]PartStats, parts),
	}
	for i := range r.parts {
		r.parts[i].ring = make([]entry, entriesPerPart)
	}
	return r
}

// Partitions returns the number of partitions.
func (r *ROB) Partitions() int { return len(r.parts) }

// Capacity returns the total number of entries.
func (r *ROB) Capacity() int { return r.total }

// Occupancy returns the number of live entries across all partitions.
func (r *ROB) Occupancy() int {
	n := 0
	for i := range r.parts {
		n += r.parts[i].count
	}
	return n
}

// PartOccupancy returns the number of live entries in partition p.
func (r *ROB) PartOccupancy(p int) int { return r.parts[p].count }

// CanAlloc reports whether partition p has a free entry.
func (r *ROB) CanAlloc(p int) bool { return !r.parts[p].full() }

// Alloc appends instruction id (in program order) to partition p.  The
// caller must allocate strictly in program order across the whole ROB;
// the L chain is maintained internally.  ok is false if the partition is
// full, in which case dispatch must stall.
func (r *ROB) Alloc(p int, id int32) (Ref, bool) {
	part := &r.parts[p]
	if part.full() {
		r.Stats.FullStall++
		return Ref{}, false
	}
	slot := part.tail
	part.ring[slot] = entry{id: id, live: true}
	part.tail = (part.tail + 1) % len(part.ring)
	part.count++
	ref := Ref{Part: p, Slot: slot}
	if r.hasLast {
		prev := &r.parts[r.last.Part].ring[r.last.Slot]
		if prev.live {
			prev.next = uint8(p)
			prev.hasNext = true
		}
	} else if !r.curSet {
		r.cur = p
		r.curSet = true
	}
	r.last = ref
	r.hasLast = true
	r.Stats.Allocs++
	r.Part[p].Allocs++
	return ref, true
}

// Complete marks the entry as ready to commit (sets its R bit).
func (r *ROB) Complete(ref Ref) {
	e := &r.parts[ref.Part].ring[ref.Slot]
	if !e.live {
		panic(fmt.Sprintf("rob: completing dead entry %+v", ref))
	}
	e.completed = true
	r.Stats.Completes++
	r.Part[ref.Part].Completes++
}

// Commit selects and retires up to bandwidth instructions following the
// R/L walk of §3.1.2, appending their ids to out and returning it.  The
// walk stops at the first not-ready entry (R=0) or when the bandwidth is
// exhausted.
func (r *ROB) Commit(bandwidth int, out []int32) []int32 {
	for n := 0; n < bandwidth; n++ {
		part := &r.parts[r.cur]
		if part.count == 0 {
			break
		}
		e := &part.ring[part.head]
		r.Stats.WalkReads++ // R/L field read by the selection logic
		r.Part[r.cur].WalkReads++
		if !e.completed {
			break
		}
		out = append(out, e.id)
		e.live = false
		part.head = (part.head + 1) % len(part.ring)
		part.count--
		r.Stats.Commits++
		r.Part[r.cur].Commits++
		if e.hasNext {
			r.cur = int(e.next)
		} else {
			// Newest instruction committed: the chain is empty; the next
			// allocation re-establishes cur.
			r.curSet = false
			r.hasLast = false
			break
		}
	}
	return out
}

// Head returns the id of the oldest instruction and whether one exists.
func (r *ROB) Head() (int32, bool) {
	part := &r.parts[r.cur]
	if part.count == 0 {
		return IDNone, false
	}
	return part.ring[part.head].id, true
}

// HeadCompleted reports whether the oldest instruction exists and has
// completed, that is whether Commit would retire anything.
func (r *ROB) HeadCompleted() bool {
	part := &r.parts[r.cur]
	return part.count > 0 && part.ring[part.head].completed
}

// ChargeStalledWalks counts the R-bit reads of n Commit calls that each
// stop at a head that has not completed: one read per call, none when
// the ROB is empty.  The cycle loop charges the cycles it skips with it.
func (r *ROB) ChargeStalledWalks(n uint64) {
	if r.parts[r.cur].count == 0 {
		return
	}
	r.Stats.WalkReads += n
	r.Part[r.cur].WalkReads += n
}
