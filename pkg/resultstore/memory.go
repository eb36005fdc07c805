package resultstore

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Memory is a bounded, concurrency-safe LRU response store — the
// process-local hot tier.
type Memory struct {
	mu      sync.Mutex
	cap     int
	closed  bool
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
	sets   atomic.Uint64
}

type memEntry struct {
	key string
	val []byte
}

// NewMemory builds a store holding up to capacity responses;
// capacity < 1 disables storage (every Get misses, Set is a no-op).
func NewMemory(capacity int) *Memory {
	return &Memory{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// Get returns the stored response and marks it most recently used.
func (m *Memory) Get(_ context.Context, key string) ([]byte, bool, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, errClosed
	}
	el, ok := m.entries[key]
	if !ok {
		m.mu.Unlock()
		m.misses.Add(1)
		return nil, false, nil
	}
	m.order.MoveToFront(el)
	val := el.Value.(*memEntry).val
	m.mu.Unlock()
	m.hits.Add(1)
	return val, true, nil
}

// Peek returns the stored response without touching the counters or the
// recency order.
func (m *Memory) Peek(_ context.Context, key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, errClosed
	}
	el, ok := m.entries[key]
	if !ok {
		return nil, false, nil
	}
	return el.Value.(*memEntry).val, true, nil
}

// Set stores a response, evicting the least recently used entry when
// the store is full.  A key the store already holds keeps its bytes;
// Set only marks it most recently used.
func (m *Memory) Set(_ context.Context, key string, val []byte) error {
	if m.cap < 1 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	m.sets.Add(1)
	if el, ok := m.entries[key]; ok {
		m.order.MoveToFront(el)
		return nil
	}
	for m.order.Len() >= m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, val: val})
	return nil
}

// Delete drops key's response, if held, without touching the counters.
func (m *Memory) Delete(_ context.Context, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	if el, ok := m.entries[key]; ok {
		m.order.Remove(el)
		delete(m.entries, key)
	}
	return nil
}

// Len returns the number of stored responses.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Stats returns the memory tier's counters.
func (m *Memory) Stats() []TierStats {
	return []TierStats{{
		Tier:    "memory",
		Entries: m.Len(),
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Sets:    m.sets.Load(),
	}}
}

// Close drops the stored responses; Get and Set fail afterwards (Peek,
// Len and Stats keep working, reporting the emptied store).
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.entries = map[string]*list.Element{}
	m.order = list.New()
	return nil
}
