// Package backend models one backend cluster of the processor (Figure 2b
// and Table 1 of the paper): the issue queues with their prescheduler
// queues, the integer and floating-point register files, the functional
// units, and the memory order buffer with its distributed disambiguation
// support.
//
// The backend is deliberately free of pipeline control: the core package
// drives it cycle by cycle.  This package owns the structures, their
// capacity rules and their activity counters.
package backend

import (
	"fmt"
	"slices"
)

// NeverReady marks a register whose value has not been produced yet.
const NeverReady = ^uint64(0)

// QueueKind enumerates the four issue queues of a cluster (Table 1).
type QueueKind uint8

const (
	IntQueue  QueueKind = iota // 40-entry IQueue, 1 inst/cycle
	FPQueue                    // 40-entry FPQueue, 1 inst/cycle
	CopyQueue                  // 40-entry CopyQueue, 1 inst/cycle
	MemQueue                   // 96-entry MemQueue, 1 inst/cycle
	NumQueues
)

var queueNames = [NumQueues]string{"IQ", "FPQ", "CopyQ", "MemQ"}

// String returns the queue's short name.
func (k QueueKind) String() string { return queueNames[k] }

// RegFile tracks the readiness of the physical registers of one register
// space in one cluster.  Values themselves are not simulated.
//
// Each register additionally carries a producer-wakeup subscription list:
// a consumer that finds the register NeverReady can Subscribe a token
// once, and SetReady hands every subscribed token back to the caller so
// it can be scheduled at the register's true ready cycle instead of
// polling.  The lists are intrusive FIFOs over a token-indexed next
// array, so subscription traffic never touches the allocator once
// EnsureWaiterTokens has sized the token space.
type RegFile struct {
	readyAt []uint64
	// waiterHead/waiterTail hold, per register, the FIFO waiter list of
	// subscribed tokens and waiterNext links tokens, each stored as the
	// token plus one: 0 means none, so freshly allocated lists are empty.
	waiterHead []int32
	waiterTail []int32
	waiterNext []int32
	notifyBuf  []int32
	// Reads and Writes are activity counters for the power model.
	Reads  uint64
	Writes uint64
}

// NewRegFile builds a register file with n physical registers, all ready
// at cycle 0 (the architectural initial state).
func NewRegFile(n int) *RegFile {
	return &RegFile{
		readyAt:    make([]uint64, n),
		waiterHead: make([]int32, n),
		waiterTail: make([]int32, n),
	}
}

// Size returns the number of physical registers.
func (rf *RegFile) Size() int { return len(rf.readyAt) }

// EnsureWaiterTokens sizes the subscription token space for tokens in
// [0, n).  Subscribe grows it on demand, but pre-sizing keeps the
// steady-state wakeup path allocation-free.
func (rf *RegFile) EnsureWaiterTokens(n int) {
	if k := len(rf.waiterNext); k < n {
		rf.waiterNext = slices.Grow(rf.waiterNext, n-k)[:n]
		clear(rf.waiterNext[k:])
	}
	if cap(rf.notifyBuf) < n {
		rf.notifyBuf = make([]int32, 0, n)
	}
}

// Subscribe appends token to register p's waiter list.  The token is
// handed back by the SetReady call that produces p's value.  A token must
// not be subscribed twice without an intervening SetReady/Unsubscribe.
func (rf *RegFile) Subscribe(p int16, token int32) {
	rf.EnsureWaiterTokens(int(token) + 1)
	rf.waiterNext[token] = 0
	if tail := rf.waiterTail[p]; tail == 0 {
		rf.waiterHead[p] = token + 1
	} else {
		rf.waiterNext[tail-1] = token + 1
	}
	rf.waiterTail[p] = token + 1
}

// Unsubscribe removes token from register p's waiter list.  It is the
// drain hook for any path that abandons a waiting consumer: the current
// machine never squashes in-flight ops (mispredict resolution only
// stalls fetch), so nothing in core calls it yet, but a flush path must
// drain its subscriptions this way or SetPending will panic at the
// register's reallocation.  Removing a token that is not subscribed is a
// no-op.
func (rf *RegFile) Unsubscribe(p int16, token int32) {
	prev := int32(0) // links hold token+1, 0 = none
	for t := rf.waiterHead[p]; t != 0; t = rf.waiterNext[t-1] {
		if t != token+1 {
			prev = t
			continue
		}
		next := rf.waiterNext[t-1]
		if prev == 0 {
			rf.waiterHead[p] = next
		} else {
			rf.waiterNext[prev-1] = next
		}
		if rf.waiterTail[p] == t {
			rf.waiterTail[p] = prev
		}
		rf.waiterNext[t-1] = 0
		return
	}
}

// HasWaiters reports whether any token is subscribed to register p.
func (rf *RegFile) HasWaiters(p int16) bool { return rf.waiterHead[p] != 0 }

// SetPending marks register p as not yet produced.  A register is only
// re-marked pending when it is reallocated to a new producer, by which
// point every waiter of the old value must have been woken or drained —
// a surviving subscription would never fire, so fail loudly.
func (rf *RegFile) SetPending(p int16) {
	if rf.waiterHead[p] != 0 {
		panic("backend: register reallocated with live waiter subscriptions")
	}
	rf.readyAt[p] = NeverReady
}

// SetReady records that register p's value is available from cycle c on,
// and counts the write-back.  It returns the tokens subscribed to p in
// FIFO order (or nil), clearing the subscription list; the returned slice
// is only valid until the next SetReady on this register file.
func (rf *RegFile) SetReady(p int16, c uint64) []int32 {
	rf.readyAt[p] = c
	rf.Writes++
	if rf.waiterHead[p] == 0 {
		return nil
	}
	buf := rf.notifyBuf[:0]
	for t := rf.waiterHead[p]; t != 0; {
		next := rf.waiterNext[t-1]
		rf.waiterNext[t-1] = 0
		buf = append(buf, t-1)
		t = next
	}
	rf.waiterHead[p] = 0
	rf.waiterTail[p] = 0
	rf.notifyBuf = buf
	return buf
}

// ReadyAt returns the cycle from which p's value can be read.
func (rf *RegFile) ReadyAt(p int16) uint64 { return rf.readyAt[p] }

// ReadyAtPtr returns a stable pointer to p's readiness slot.  The backing
// array never reallocates, so the scheduler's wakeup loop can cache the
// pointer at dispatch and poll it with a single load per cycle.
func (rf *RegFile) ReadyAtPtr(p int16) *uint64 { return &rf.readyAt[p] }

// CountRead records an operand read for the power model.
func (rf *RegFile) CountRead() { rf.Reads++ }

// QueueEntry is one instruction waiting in an issue queue.
type QueueEntry struct {
	ID int32 // core's in-flight op index
	// Seq orders the select, oldest first: program order.  It must be
	// unique within a queue, because the window's order is not the
	// arrival order once entries park and wake.
	Seq uint64
	// NotBefore is the core's cached earliest-possible issue cycle, so
	// the select does not re-evaluate entries known not to be ready.
	// NeverReady marks a parked entry: one waiting on a source register's
	// producer, or a load the MOB refused, until the core wakes it.
	NotBefore uint64
}

// IssueQueue is one scheduler: a prescheduler FIFO feeding an issue
// window that issues at most one instruction per cycle (Table 1).  Both
// stages live in fixed ring/flat buffers allocated at construction, so
// steady-state dispatch and wakeup never touch the allocator.
//
// The window is split in two: the first entries are the ones the core's
// select scans (Active), the rest are parked (Park) until the core wakes
// them (Wake), so a scan never steps over a parked entry.
type IssueQueue struct {
	kind     QueueKind
	capacity int
	// Prescheduler ring buffer: presCount live entries starting at
	// presHead; len(pres) is a power of two >= prescap.
	pres      []presEntry
	presMask  int
	presHead  int
	presCount int
	prescap   int
	window    []QueueEntry // len <= capacity; backing array never grows
	active    int          // window[:active] is scanned, window[active:] parked
	// WakeAt is a conservative lower bound on the next cycle at which any
	// active window entry could pass its NotBefore gate.  The core's
	// wakeup scan maintains it and skips the whole window while WakeAt >
	// now — a skipped scan would have evaluated no entry, so the activity
	// counters are unaffected.  Advance resets it when new entries
	// (NotBefore 0) reach the window; Wake lowers it.
	WakeAt uint64
	// Activity counters: writes on insert, reads on wakeup/select.
	Writes uint64
	Reads  uint64
	// IssueCount counts issued instructions.
	IssueCount uint64
}

type presEntry struct {
	e       QueueEntry
	arrives uint64 // cycle the entry reaches the issue window
}

// NewIssueQueue builds a queue of the given kind with the Table 1
// capacities: window size `capacity`, prescheduler size `prescap`.
func NewIssueQueue(kind QueueKind, capacity, prescap int) *IssueQueue {
	if capacity < 1 || prescap < 1 {
		panic(fmt.Sprintf("backend: bad queue sizes %d/%d", capacity, prescap))
	}
	ring := 1
	for ring < prescap {
		ring *= 2
	}
	return &IssueQueue{
		kind:     kind,
		capacity: capacity,
		pres:     make([]presEntry, ring),
		presMask: ring - 1,
		prescap:  prescap,
		window:   make([]QueueEntry, 0, capacity),
	}
}

// Kind returns the queue kind.
func (q *IssueQueue) Kind() QueueKind { return q.kind }

// Free reports how many more entries the prescheduler accepts.
func (q *IssueQueue) Free() int { return q.prescap - q.presCount }

// Dispatch inserts an instruction into the prescheduler; it will reach
// the issue window at cycle `arrives` (dispatch latency is charged by the
// caller).  ok is false if the prescheduler is full.
func (q *IssueQueue) Dispatch(e QueueEntry, arrives uint64) bool {
	if q.presCount >= q.prescap {
		return false
	}
	q.pres[(q.presHead+q.presCount)&q.presMask] = presEntry{e: e, arrives: arrives}
	q.presCount++
	q.Writes++
	return true
}

// NextArrival returns the cycle the prescheduler's head reaches the
// window, NeverReady while the prescheduler is empty or the window full:
// the earliest cycle Advance can move an entry.
func (q *IssueQueue) NextArrival() uint64 {
	if q.presCount == 0 || len(q.window) == q.capacity {
		return NeverReady
	}
	return q.pres[q.presHead].arrives
}

// Advance moves prescheduled entries whose time has come into the issue
// window, in order, while the window has space.
func (q *IssueQueue) Advance(now uint64) {
	for q.presCount > 0 && q.pres[q.presHead].arrives <= now && len(q.window) < q.capacity {
		q.window = append(q.window, q.pres[q.presHead].e)
		q.presHead = (q.presHead + 1) & q.presMask
		q.presCount--
		q.Writes++
		q.WakeAt = 0 // the new entry is immediately evaluable
		q.swap(q.active, len(q.window)-1)
		q.active++
	}
}

func (q *IssueQueue) swap(i, j int) { q.window[i], q.window[j] = q.window[j], q.window[i] }

// Window exposes every window entry, active ones first.
func (q *IssueQueue) Window() []QueueEntry { return q.window }

// Active exposes the window entries the core's wakeup/select scan
// examines.  Callers may update entries' NotBefore, must count every
// entry the wakeup logic examines with CountWakeups, and issue via
// RemoveIssued or take an entry off the scan via Park.
func (q *IssueQueue) Active() []QueueEntry { return q.window[:q.active] }

// Park takes active entry i off the scan (NotBefore NeverReady) until
// Wake.  The last active entry moves into slot i.
func (q *IssueQueue) Park(i int) {
	q.window[i].NotBefore = NeverReady
	q.active--
	q.swap(i, q.active)
}

// Wake returns the parked entry id to the scan from cycle now; false if
// no parked entry has that id.
func (q *IssueQueue) Wake(id int32, now uint64) bool {
	for i := q.active; i < len(q.window); i++ {
		if q.window[i].ID == id {
			q.window[i].NotBefore = now
			q.swap(i, q.active)
			q.active++
			q.WakeAt = min(q.WakeAt, now)
			return true
		}
	}
	return false
}

// CountWakeups records n wakeup-scan entry examinations (power): the
// entries the select evaluated plus those parked on a register waiter
// list, which the §2.1 activity counter charges every cycle as well.
func (q *IssueQueue) CountWakeups(n uint64) { q.Reads += n }

// RemoveIssued removes active entry i, counting the issue, and returns
// its id.  The last active entry moves into slot i and the last parked
// one into the freed active slot, as the select orders by Seq, not by
// position.
func (q *IssueQueue) RemoveIssued(i int) int32 {
	id := q.window[i].ID
	last := len(q.window) - 1
	q.active--
	q.window[i] = q.window[q.active]
	q.window[q.active] = q.window[last]
	q.window = q.window[:last]
	q.IssueCount++
	return id
}

// Occupancy returns the number of entries in the window and prescheduler.
func (q *IssueQueue) Occupancy() int { return len(q.window) + q.presCount }

// WindowOccupancy returns the number of entries in the issue window only.
func (q *IssueQueue) WindowOccupancy() int { return len(q.window) }

// mobSlot is one slot of the memory order buffer: a load or a store in
// program order.
type mobSlot struct {
	seq     uint64
	isStore bool
	done    bool
}

// mobStore is what disambiguation needs of one store.
type mobStore struct {
	seq         uint64
	line        uint64 // cache-line address, valid once addrKnownAt set
	addrKnownAt uint64 // NeverReady until the address reaches this cluster
	done        bool
}

// deque is a head-compacted queue over a fixed backing array of twice
// its capacity: the head slides forward on pop and the live span is
// memmoved back to the front when the tail hits the end, so steady-state
// pushes and pops never touch the allocator and walks stay contiguous.
type deque[T any] struct {
	buf         []T
	head, count int
}

func newDeque[T any](capacity int) deque[T] { return deque[T]{buf: make([]T, 2*capacity)} }

// live returns the live span, oldest first.
func (d *deque[T]) live() []T { return d.buf[d.head : d.head+d.count] }

func (d *deque[T]) push(v T) {
	if d.head+d.count == len(d.buf) {
		// Amortized O(1): at most once per capacity pushes.
		copy(d.buf, d.live())
		d.head = 0
	}
	d.buf[d.head+d.count] = v
	d.count++
}

func (d *deque[T]) popFront() {
	d.head++
	d.count--
	if d.count == 0 {
		d.head = 0
	}
}

// MOB is the memory order buffer of one cluster.  Stores allocate a slot
// in every cluster's MOB so that loads can disambiguate locally (§2 of
// the paper); loads allocate a slot only in their own cluster.
//
// The slots hold every live load and store in program order and free
// capacity from the head; the stores are kept a second time, in their
// own deque, with their addresses, so disambiguation walks only stores.
// The MOB additionally tracks the oldest pending store whose address is
// still unknown, so whether that store blocks a load is an O(1) question
// (BlockedByUnknown).
type MOB struct {
	slots    deque[mobSlot]
	stores   deque[mobStore] // the stores among slots, oldest first
	capacity int
	// unknownStores counts live, not-done stores whose addrKnownAt is
	// still NeverReady; minUnknownSeq is the smallest seq among them
	// (valid only when unknownStores > 0).
	unknownStores int
	minUnknownSeq uint64
	// Activity counters.
	Writes uint64
	Reads  uint64
}

// NewMOB builds a memory order buffer with the given capacity (Table 1:
// 96 entries).
func NewMOB(capacity int) *MOB {
	if capacity < 1 {
		panic("backend: MOB capacity must be positive")
	}
	return &MOB{slots: newDeque[mobSlot](capacity), stores: newDeque[mobStore](capacity), capacity: capacity}
}

// CanAlloc reports whether a slot is free.
func (m *MOB) CanAlloc() bool { return m.slots.count < m.capacity }

// Alloc appends an entry in program order.  ok is false when full.
// Callers must allocate in non-decreasing Seq order.
func (m *MOB) Alloc(seq uint64, isStore bool) bool {
	if m.slots.count >= m.capacity {
		return false
	}
	if live := m.slots.live(); len(live) > 0 && live[len(live)-1].seq > seq {
		panic("backend: MOB allocation out of program order")
	}
	m.slots.push(mobSlot{seq: seq, isStore: isStore})
	if isStore {
		m.stores.push(mobStore{seq: seq, addrKnownAt: NeverReady})
		if m.unknownStores == 0 {
			m.minUnknownSeq = seq // allocation order is non-decreasing
		}
		m.unknownStores++
	}
	m.Writes++
	return true
}

// store returns the live store with sequence seq, or nil.
func (m *MOB) store(seq uint64) *mobStore {
	ss := m.stores.live()
	for i := range ss {
		if ss[i].seq == seq {
			return &ss[i]
		}
	}
	return nil
}

// noteAddrKnown updates the unknown-store tracking when store seq's
// address transitions away from NeverReady (or it leaves the buffer
// still unknown).
func (m *MOB) noteAddrKnown(seq uint64) {
	m.unknownStores--
	if m.unknownStores > 0 && seq == m.minUnknownSeq {
		for _, e := range m.stores.live() {
			if !e.done && e.addrKnownAt == NeverReady {
				m.minUnknownSeq = e.seq
				return
			}
		}
		// Tracking got inconsistent; fail loudly rather than deadlock.
		panic("backend: MOB unknown-store count has no matching entry")
	}
}

// SetAddr records that the address of the store with sequence seq is
// known at this cluster from cycle c on.
func (m *MOB) SetAddr(seq uint64, line uint64, c uint64) {
	e := m.store(seq)
	if e == nil {
		// The store may already have been released (e.g. committed before
		// a straggling broadcast); that is harmless.
		return
	}
	wasUnknown := !e.done && e.addrKnownAt == NeverReady
	e.line = line
	e.addrKnownAt = c
	if wasUnknown {
		m.noteAddrKnown(seq) // after the update: the rescan must not re-find seq
	}
	m.Writes++
}

// BlockedByUnknown reports whether a store older than a load with
// sequence seq has no address yet: Disambiguate's refusal that needs no
// scan, in O(1).  It holds until every such store's address arrives or
// the store leaves.
func (m *MOB) BlockedByUnknown(seq uint64) bool {
	return m.unknownStores > 0 && m.minUnknownSeq < seq
}

// PendingStore returns the oldest store older than a load with sequence
// seq whose address has not reached this cluster by cycle now: its
// sequence number and the cycle its address arrives (NeverReady while
// unknown).  blocked is false when every older store's address is here,
// so disambiguation lets the load issue.
func (m *MOB) PendingStore(seq, now uint64) (store, arrives uint64, blocked bool) {
	for _, e := range m.stores.live() {
		if e.seq >= seq {
			break
		}
		if !e.done && e.addrKnownAt > now {
			return e.seq, e.addrKnownAt, true
		}
	}
	return 0, 0, false
}

// Disambiguate checks whether a load with sequence seq and line address
// line may issue at cycle now: every older store must have a known
// address by now.  It returns ok and, when ok, whether an older store to
// the same line provides forwarding.  The core's issue select asks
// BlockedByUnknown and PendingStore instead and parks a refused load
// until the answer can change; Disambiguate is the executing load's
// forwarding check.  It counts no activity: core counts one search per
// executed memory op via CountSearch.
func (m *MOB) Disambiguate(seq uint64, line uint64, now uint64) (ok, forward bool) {
	for _, e := range m.stores.live() {
		if e.seq >= seq {
			break
		}
		if e.done {
			continue
		}
		if e.addrKnownAt > now { // NeverReady while unknown
			return false, false
		}
		if e.line == line {
			forward = true // youngest older store wins; keep scanning
		}
	}
	return true, forward
}

// CountSearch records one associative disambiguation search (power).
func (m *MOB) CountSearch() { m.Reads++ }

// Release marks the entry with sequence seq done and compacts the head.
func (m *MOB) Release(seq uint64) {
	ss := m.slots.live()
	for i := range ss {
		if ss[i].seq != seq {
			continue
		}
		ss[i].done = true
		if ss[i].isStore {
			e := m.store(seq)
			wasUnknown := !e.done && e.addrKnownAt == NeverReady
			e.done = true
			if wasUnknown {
				// Defensive: a store leaving with its address never set
				// must not wedge the unknown-store fast path.
				m.noteAddrKnown(seq)
			}
		}
		break
	}
	// Pop done entries from the head to free capacity in order; a popped
	// store is the oldest in stores.
	for m.slots.count > 0 && m.slots.buf[m.slots.head].done {
		if m.slots.buf[m.slots.head].isStore {
			m.stores.popFront()
		}
		m.slots.popFront()
	}
}

// Occupancy returns the number of live slots.
func (m *MOB) Occupancy() int { return m.slots.count }

// FU models the unpipelined functional units (dividers); pipelined units
// accept one operation per cycle through their issue queue and need no
// extra state.
type FU struct {
	nextFree uint64
	// Ops counts executed operations (pipelined and not) for power.
	Ops uint64
}

// NextFree returns the first cycle an unpipelined operation can start.
func (f *FU) NextFree() uint64 { return f.nextFree }

// TryStart attempts to start an unpipelined operation of the given
// latency at cycle now; ok is false if the unit is busy.
func (f *FU) TryStart(now uint64, latency int, pipelined bool) bool {
	if !pipelined && f.nextFree > now {
		return false
	}
	if !pipelined {
		f.nextFree = now + uint64(latency)
	}
	f.Ops++
	return true
}

// Cluster bundles the structures of one backend cluster.
type Cluster struct {
	Index  int
	Queues [NumQueues]*IssueQueue
	IntRF  *RegFile
	FPRF   *RegFile
	Mob    *MOB
	IntFU  FU
	FPFU   FU
	// DTLBAccesses and DL1 activity are tracked by the core's caches;
	// these counters cover the remaining power-relevant events.
	AgenOps uint64
}

// Config sizes one cluster (defaults follow Table 1).
type Config struct {
	IntRegs      int // 160
	FPRegs       int // 160
	IntQ         int // 40
	FPQ          int // 40
	CopyQ        int // 40
	MemQ         int // 96
	Prescheduler int // 20 entries per prescheduler queue
	MOBEntries   int // memory order buffer slots
}

// NewCluster builds a cluster with the given index and sizes.
func NewCluster(index int, cfg Config) *Cluster {
	c := &Cluster{
		Index: index,
		IntRF: NewRegFile(cfg.IntRegs),
		FPRF:  NewRegFile(cfg.FPRegs),
		Mob:   NewMOB(cfg.MOBEntries),
	}
	c.Queues[IntQueue] = NewIssueQueue(IntQueue, cfg.IntQ, cfg.Prescheduler)
	c.Queues[FPQueue] = NewIssueQueue(FPQueue, cfg.FPQ, cfg.Prescheduler)
	c.Queues[CopyQueue] = NewIssueQueue(CopyQueue, cfg.CopyQ, cfg.Prescheduler)
	c.Queues[MemQueue] = NewIssueQueue(MemQueue, cfg.MemQ, cfg.Prescheduler)
	return c
}
