package core

// eventQueue schedules op-completion events on a fixed ring of per-cycle
// buckets (a calendar queue).  The replaced binary heap cost O(log n) per
// operation and left the drain order of equal-cycle events unspecified;
// the ring costs O(1) per push/pop and drains same-cycle events in push
// order, which makes the cycle loop's completion order fully
// deterministic.
//
// Tokens are slab indices, and an op has at most one live event, so the
// bucket lists are intrusive FIFOs over one token-indexed next array:
// nothing here ever touches the allocator after construction.
//
// The ring covers the bounded event horizon (the largest completion
// latency the machine can charge: a memory access plus its bus and TLB
// penalties).  Rare events beyond it — bus queueing under extreme
// contention can exceed any static bound — go to an overflow FIFO and
// migrate into their bucket once the drain cursor comes within the
// horizon.  Migration happens at the start of the cycle the event first
// fits, strictly before any same-cycle pushes, so push-order FIFO holds
// across the overflow path too.
type eventQueue struct {
	head    []int32  // per-bucket FIFO head, -1 = empty
	tail    []int32  // per-bucket FIFO tail, -1 = empty
	next    []int32  // per-token link, -1 = end
	cycleOf []uint64 // per-token scheduled cycle, valid while queued
	mask    uint64   // len(head) - 1; len is a power of two
	count   int      // queued events, overflow included

	ovHead  int32 // overflow FIFO of events beyond the horizon
	ovTail  int32
	ovCount int
	ovMin   uint64 // earliest overflow cycle, valid when ovCount > 0
}

// initEventQueue sizes the ring to a power of two covering at least
// `horizon` cycles, with `tokens` schedulable ids.
func (q *eventQueue) initEventQueue(horizon, tokens int) {
	size := 1
	for size < horizon {
		size *= 2
	}
	q.head = make([]int32, size)
	q.tail = make([]int32, size)
	q.next = make([]int32, tokens)
	q.cycleOf = make([]uint64, tokens)
	for i := range q.head {
		q.head[i] = -1
		q.tail[i] = -1
	}
	for i := range q.next {
		q.next[i] = -1
	}
	q.mask = uint64(size - 1)
	q.ovHead, q.ovTail = -1, -1
}

// horizon returns the number of future cycles the ring covers.
func (q *eventQueue) horizon() uint64 { return uint64(len(q.head)) }

// enqueueBucket appends id to its cycle's bucket FIFO.  The cycle must
// be strictly inside the horizon relative to the drain cursor.
func (q *eventQueue) enqueueBucket(id int32, cycle uint64) {
	b := cycle & q.mask
	if q.tail[b] < 0 {
		q.head[b] = id
	} else {
		q.next[q.tail[b]] = id
	}
	q.tail[b] = id
}

// enqueueOverflow appends id to the overflow FIFO.
func (q *eventQueue) enqueueOverflow(id int32, cycle uint64) {
	if q.ovTail < 0 {
		q.ovHead = id
	} else {
		q.next[q.ovTail] = id
	}
	q.ovTail = id
	if q.ovCount == 0 || cycle < q.ovMin {
		q.ovMin = cycle
	}
	q.ovCount++
}

// push schedules token id at the given cycle.  The cycle must be in the
// future relative to now (the current drain cursor): completion events
// are always scheduled ahead of the cycle that produces them.
func (q *eventQueue) push(cycle uint64, id int32, now uint64) {
	if cycle <= now {
		panic("core: event scheduled at or before the current cycle")
	}
	q.cycleOf[id] = cycle
	q.next[id] = -1
	q.count++
	// Strictly inside the horizon: a cycle exactly horizon cycles out
	// shares its bucket index with the cycle being drained, so it waits
	// in overflow one more cycle (push order is preserved — in-horizon
	// pushes for that cycle are only possible after it migrates).
	if cycle-now < q.horizon() {
		q.enqueueBucket(id, cycle)
	} else {
		q.enqueueOverflow(id, cycle)
	}
}

// migrate moves every overflow event that now fits the ring into its
// bucket, preserving FIFO order among the moved events.
func (q *eventQueue) migrate(now uint64) {
	horizon := q.horizon()
	id := q.ovHead
	q.ovHead, q.ovTail = -1, -1
	q.ovCount = 0
	for id >= 0 {
		next := q.next[id]
		q.next[id] = -1
		c := q.cycleOf[id]
		if c-now < horizon {
			q.enqueueBucket(id, c)
		} else {
			q.enqueueOverflow(id, c)
		}
		id = next
	}
}

// drainInto detaches cycle now's bucket (after migrating any overflow
// events that came within the horizon) and appends its ids to buf in
// push order, clearing their links and the queued count.  Every id
// drained was scheduled for exactly cycle now: pushes are strictly
// future, and the drain cursor skips only cycles before nextBusy's
// answer, whose buckets are empty and which migrate nothing.
func (q *eventQueue) drainInto(now uint64, buf []int32) []int32 {
	if q.ovCount > 0 && q.ovMin-now < q.horizon() {
		q.migrate(now)
	}
	b := now & q.mask
	id := q.head[b]
	if id < 0 {
		return buf
	}
	q.head[b] = -1
	q.tail[b] = -1
	for id >= 0 {
		next := q.next[id]
		q.next[id] = -1
		q.count--
		buf = append(buf, id)
		id = next
	}
	return buf
}

// nextBusy returns the first cycle after now and before limit at which
// the queue has work: a non-empty bucket, or the migration of the
// earliest overflow event.  It returns limit when there is none.
// Bucketed events lie within the horizon of now, so the scan reads at
// most that many buckets.
func (q *eventQueue) nextBusy(now, limit uint64) uint64 {
	if q.ovCount > 0 {
		limit = min(limit, q.ovMin-q.horizon()+1)
	}
	if q.count > q.ovCount {
		for c, end := now+1, min(limit, now+q.horizon()); c < end; c++ {
			if q.head[c&q.mask] >= 0 {
				return c
			}
		}
	}
	return limit
}
