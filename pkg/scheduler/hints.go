package scheduler

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/membership"
)

// Hinted handoff: when a dispatch succeeds for a key whose *full-ring*
// home (the ring over every known member, quarantined included) is a
// quarantined member, the write-through that member's store would have
// received is lost — it serves misses on reinstatement and the fleet
// recomputes.  The hint queue buffers those writes, bounded per member,
// and replays them through PUT /v1/store/entries/{key} when membership
// reinstates the member.  Eviction or departure drops the backlog: the
// member's next incarnation warms up from a peer instead.

// hintEntry is one buffered write-through: the canonical key plus the
// exact body the member's store would have received (the backend's
// stored representation, newline-terminated JSON), so a replayed entry
// is served byte-identical.
type hintEntry struct {
	key  string
	body []byte
}

// hintQueue tracks the full member set (active and quarantined), the
// ring over it, and one bounded FIFO of pending writes per quarantined
// member.  It is safe for concurrent use.
type hintQueue struct {
	limit  int // per-member buffered writes
	client *http.Client

	mu      sync.Mutex
	members map[string]bool        // member URL -> quarantined?
	ring    *Ring                  // over every key of members; nil when empty
	queues  map[string][]hintEntry // per quarantined member, oldest first
	slots   map[string]map[string]int

	queued   atomic.Uint64
	replayed atomic.Uint64
	dropped  atomic.Uint64
}

func newHintQueue(limit int, seeds []string, client *http.Client) *hintQueue {
	if client == nil {
		client = http.DefaultClient
	}
	h := &hintQueue{
		limit:   limit,
		client:  client,
		members: map[string]bool{},
		queues:  map[string][]hintEntry{},
		slots:   map[string]map[string]int{},
	}
	for _, u := range seeds {
		h.members[u] = false
	}
	h.rebuildLocked()
	return h
}

// rebuildLocked recomputes the full-membership ring.  Caller holds mu.
func (h *hintQueue) rebuildLocked() {
	if len(h.members) == 0 {
		h.ring = nil
		return
	}
	nodes := make([]string, 0, len(h.members))
	for u := range h.members {
		nodes = append(nodes, u)
	}
	if ring, err := NewRing(nodes); err == nil {
		h.ring = ring
	}
}

// setMember records url as a member with the given quarantine state,
// adding it if unknown.
func (h *hintQueue) setMember(url string, quarantined bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, known := h.members[url]
	h.members[url] = quarantined
	if !known {
		h.rebuildLocked()
	}
}

// removeMember forgets url and drops its backlog.
func (h *hintQueue) removeMember(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, known := h.members[url]; !known {
		return
	}
	delete(h.members, url)
	h.dropped.Add(uint64(len(h.queues[url])))
	delete(h.queues, url)
	delete(h.slots, url)
	h.rebuildLocked()
}

// quarantinedHome returns key's home on the full-membership ring when
// that home is currently quarantined.
func (h *hintQueue) quarantinedHome(key string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ring == nil {
		return "", false
	}
	home := h.ring.Node(key)
	return home, h.members[home]
}

// enqueue buffers one write for member, deduplicating by key (a
// recomputed key overwrites its pending body) and dropping the oldest
// pending write when the member's buffer is full.
func (h *hintQueue) enqueue(member, key string, body []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.members[member] {
		return // reinstated (or removed) since the caller checked
	}
	if slot, ok := h.slots[member][key]; ok {
		h.queues[member][slot].body = body
		return
	}
	q := h.queues[member]
	for len(q) >= h.limit {
		oldest := q[0]
		q = q[1:]
		delete(h.slots[member], oldest.key)
		for k, s := range h.slots[member] {
			h.slots[member][k] = s - 1
		}
		h.dropped.Add(1)
	}
	if h.slots[member] == nil {
		h.slots[member] = map[string]int{}
	}
	h.slots[member][key] = len(q)
	h.queues[member] = append(q, hintEntry{key: key, body: body})
	h.queued.Add(1)
}

// take removes and returns member's backlog, oldest first.
func (h *hintQueue) take(member string) []hintEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	entries := h.queues[member]
	delete(h.queues, member)
	delete(h.slots, member)
	return entries
}

// backlog returns member's pending-write count.
func (h *hintQueue) backlog(member string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queues[member])
}

// put replays one buffered write into member's store.
func (h *hintQueue) put(ctx context.Context, member, key string, body []byte) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		member+"/v1/store/entries/"+url.PathEscape(key), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("scheduler: hint replay to %s: status %d", member, resp.StatusCode)
	}
	return nil
}

// hintResult buffers the write-through owed to a quarantined member:
// when hinted handoff is enabled and key's full-ring home is
// quarantined, the backend's body — exactly what the member's store
// would have received — is queued for replay.
func (s *Scheduler) hintResult(key string, body []byte) {
	if s.hints == nil {
		return
	}
	if home, quarantined := s.hints.quarantinedHome(key); quarantined {
		s.hints.enqueue(home, key, body)
	}
}

// replayHints drains member's backlog into its store, oldest first.  A
// failed PUT drops that entry (anti-entropy repairs it later) rather
// than blocking the queue behind a member that flapped again.
func (s *Scheduler) replayHints(member string) {
	entries := s.hints.take(member)
	for _, e := range entries {
		if err := s.hints.put(context.Background(), member, e.key, e.body); err != nil {
			s.hints.dropped.Add(1)
			continue
		}
		s.hints.replayed.Add(1)
	}
}

// HintBacklog returns the pending hinted writes buffered for member (0
// when hinted handoff is disabled).
func (s *Scheduler) HintBacklog(member string) int {
	if s.hints == nil {
		return 0
	}
	return s.hints.backlog(member)
}

// OnMembershipTransition returns a callback for
// membership.Config.OnTransition that drives the hint queue: a
// quarantined member starts accruing hints, a reinstated member gets
// its backlog replayed (asynchronously — the membership callback must
// not block on network I/O), and a member that leaves or is evicted has
// its backlog dropped.  Wire it alongside OnMembershipChange.
func (s *Scheduler) OnMembershipTransition() func(url string, t membership.Transition) {
	return func(url string, t membership.Transition) {
		if s.hints == nil {
			return
		}
		switch t {
		case membership.TransitionJoin:
			s.hints.setMember(url, false)
		case membership.TransitionQuarantine:
			s.hints.setMember(url, true)
		case membership.TransitionReinstate:
			s.hints.setMember(url, false)
			go s.replayHints(url)
		case membership.TransitionLeave, membership.TransitionEvict:
			s.hints.removeMember(url)
		}
	}
}
