// Package cache implements the set-associative cache model used for the
// per-cluster first-level data caches and the shared UL2 (Table 1 of the
// paper: 16 KB/2-way DL1 with write-update, 2 MB/8-way UL2).
//
// The model tracks tags only — simulated programs have no data values —
// and is used for timing (hit/miss) and activity (power) accounting.
package cache

import "fmt"

// Stats accumulates access statistics; the power model reads these as
// activity counters.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadMiss   uint64
	WriteMiss  uint64
	Fills      uint64
	Updates    uint64 // write-update refreshes of lines present elsewhere
	Invalidate uint64
}

// Accesses returns the total number of cache accesses.
func (s *Stats) Accesses() uint64 { return s.Reads + s.Writes + s.Updates }

// Misses returns the total number of misses.
func (s *Stats) Misses() uint64 { return s.ReadMiss + s.WriteMiss }

// HitRate returns the fraction of read+write accesses that hit, or 1 if
// there were no accesses.
func (s *Stats) HitRate() float64 {
	a := s.Reads + s.Writes
	if a == 0 {
		return 1
	}
	return 1 - float64(s.Misses())/float64(a)
}

// maxWays bounds the associativity so that a way's age fits a byte.
const maxWays = 0xFF

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64 // sets*ways, tag per way
	// age is each way's LRU position within its set plus one: the valid
	// ways of a set hold 1 (most recently used) up to their count, and 0
	// marks an empty way, so a freshly allocated cache is all empty.
	age   []uint8
	Stats Stats
}

// Config describes a cache geometry.
type Config struct {
	Name  string
	SizeB int // total size in bytes
	Ways  int
	LineB int // line size in bytes
}

// New builds a cache from the configuration.  It panics on a geometry
// that is not a power of two, which would silently alias sets.
func New(cfg Config) *Cache {
	if cfg.LineB <= 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineB))
	}
	if cfg.Ways <= 0 || cfg.Ways >= maxWays {
		panic(fmt.Sprintf("cache %s: %d ways", cfg.Name, cfg.Ways))
	}
	lines := cfg.SizeB / cfg.LineB
	sets := lines / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets not a power of two", cfg.Name, sets))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineB {
		shift++
	}
	return &Cache{
		name:      cfg.Name,
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*cfg.Ways),
		age:       make([]uint8, sets*cfg.Ways),
	}
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineB returns the line size in bytes.
func (c *Cache) LineB() int { return 1 << c.lineShift }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line & c.setMask), line >> 0 // full line address as tag
}

// Lookup reports whether addr hits without updating LRU state or stats.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.age[base+w] != 0 && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Read performs a read access; it returns true on hit.  On a miss the
// line is NOT filled automatically — call Fill when the refill arrives so
// that timing and contents stay consistent.
func (c *Cache) Read(addr uint64) bool {
	c.Stats.Reads++
	if c.touch(addr) {
		return true
	}
	c.Stats.ReadMiss++
	return false
}

// Write performs a write access; returns true on hit.  The caller decides
// the allocation policy (the DL1 uses write-update, no write-allocate).
func (c *Cache) Write(addr uint64) bool {
	c.Stats.Writes++
	if c.touch(addr) {
		return true
	}
	c.Stats.WriteMiss++
	return false
}

// Update refreshes a line if present (write-update protocol); it returns
// true if the line was present.  Misses are not counted as such.
func (c *Cache) Update(addr uint64) bool {
	if c.touch(addr) {
		c.Stats.Updates++
		return true
	}
	return false
}

// touch hits the line if present and promotes it to MRU.
func (c *Cache) touch(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.age[base+w] != 0 && c.tags[base+w] == tag {
			c.promote(base, base+w)
			return true
		}
	}
	return false
}

// promote makes way i of the set at base its most recently used: every
// way more recent than i ages by one.  An empty i ages every valid way.
// Subtracting one maps an empty way's 0 to 0xFF, older than any valid
// way, so one byte comparison covers both cases.
func (c *Cache) promote(base, i int) {
	r := c.age[i] - 1
	for w := base; w < base+c.ways; w++ {
		if c.age[w]-1 < r {
			c.age[w]++
		}
	}
	c.age[i] = 1
}

// Fill inserts the line containing addr into the first invalid way of
// its set, else over the LRU way.  It returns the evicted line address
// and whether an eviction happened.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasValid bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	c.Stats.Fills++
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.age[i] == 0 {
			c.tags[i] = tag
			c.promote(base, i)
			return 0, false
		}
		if c.age[i] > c.age[victim] {
			victim = i
		}
	}
	evicted = c.tags[victim] << c.lineShift
	c.tags[victim] = tag
	c.promote(base, victim)
	return evicted, true
}

// InvalidateAll clears the whole cache (used when a trace-cache bank is
// Vdd-gated: its contents are lost, §3.2.1).
func (c *Cache) InvalidateAll() {
	for i := range c.age {
		if c.age[i] != 0 {
			c.age[i] = 0
			c.Stats.Invalidate++
		}
	}
}

// ValidLines returns the number of valid lines currently held.
func (c *Cache) ValidLines() int {
	n := 0
	for _, a := range c.age {
		if a != 0 {
			n++
		}
	}
	return n
}

// ResetStats zeroes the statistics counters (contents are kept).
func (c *Cache) ResetStats() { c.Stats = Stats{} }
