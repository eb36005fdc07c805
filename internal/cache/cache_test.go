package cache

import (
	"testing"
	"testing/quick"
)

func dl1() *Cache {
	// Table 1: 16 KB / 2-way data cache, 64-byte lines.
	return New(Config{Name: "DL1", SizeB: 16 << 10, Ways: 2, LineB: 64})
}

func TestGeometry(t *testing.T) {
	c := dl1()
	if c.Sets() != 128 || c.Ways() != 2 || c.LineB() != 64 {
		t.Fatalf("geometry = %d sets / %d ways / %dB lines", c.Sets(), c.Ways(), c.LineB())
	}
	if c.Name() != "DL1" {
		t.Fatalf("name = %q", c.Name())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Name: "badline", SizeB: 1024, Ways: 2, LineB: 48},
		{Name: "zeroways", SizeB: 1024, Ways: 0, LineB: 64},
		{Name: "rankoverflow", SizeB: 256 * 64, Ways: 256, LineB: 64},
		{Name: "badsets", SizeB: 3 * 64 * 2, Ways: 2, LineB: 64},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := dl1()
	if c.Read(0x1000) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000)
	if !c.Read(0x1000) {
		t.Fatal("miss after fill")
	}
	if !c.Read(0x1038) {
		t.Fatal("same-line access missed")
	}
	if c.Read(0x1040) {
		t.Fatal("next line hit without fill")
	}
	if c.Stats.Reads != 4 || c.Stats.ReadMiss != 2 || c.Stats.Fills != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := dl1()
	// Three lines mapping to the same set: set index repeats every
	// sets*lineB = 8192 bytes.
	a, b, d := uint64(0x0000), uint64(0x2000), uint64(0x4000)
	c.Fill(a)
	c.Fill(b)
	c.Read(a) // promote a to MRU; b is now LRU
	c.Fill(d) // must evict b
	if !c.Lookup(a) {
		t.Error("a was evicted but was MRU")
	}
	if c.Lookup(b) {
		t.Error("b survived but was LRU")
	}
	if !c.Lookup(d) {
		t.Error("d missing after fill")
	}
}

func TestFillReturnsEviction(t *testing.T) {
	c := New(Config{Name: "tiny", SizeB: 128, Ways: 2, LineB: 64})
	if _, was := c.Fill(0); was {
		t.Error("eviction from empty cache")
	}
	if _, was := c.Fill(128); was {
		t.Error("eviction while ways free")
	}
	ev, was := c.Fill(256)
	if !was || ev != 0 {
		t.Errorf("Fill evicted (%#x,%v), want (0,true)", ev, was)
	}
}

func TestWriteUpdateProtocol(t *testing.T) {
	c := dl1()
	if c.Update(0x40) {
		t.Error("Update hit on absent line")
	}
	c.Fill(0x40)
	if !c.Update(0x40) {
		t.Error("Update missed present line")
	}
	if c.Stats.Updates != 1 {
		t.Errorf("Updates = %d", c.Stats.Updates)
	}
	// Updates must not perturb the miss counters.
	if c.Stats.Misses() != 0 {
		t.Errorf("Update counted as miss: %+v", c.Stats)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := dl1()
	for i := uint64(0); i < 32; i++ {
		c.Fill(i * 64)
	}
	if c.ValidLines() != 32 {
		t.Fatalf("valid lines = %d", c.ValidLines())
	}
	c.InvalidateAll()
	if c.ValidLines() != 0 {
		t.Fatal("lines survived InvalidateAll")
	}
	if c.Stats.Invalidate != 32 {
		t.Fatalf("Invalidate count = %d", c.Stats.Invalidate)
	}
	if c.Read(0) {
		t.Fatal("hit after InvalidateAll")
	}
}

func TestHitRate(t *testing.T) {
	c := dl1()
	if hr := c.Stats.HitRate(); hr != 1 {
		t.Errorf("empty hit rate = %v", hr)
	}
	c.Read(0) // miss
	c.Fill(0)
	c.Read(0) // hit
	if hr := c.Stats.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}
	c.ResetStats()
	if c.Stats.Accesses() != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestWriteMissCounting(t *testing.T) {
	c := dl1()
	if c.Write(0x80) {
		t.Fatal("write hit on empty cache")
	}
	c.Fill(0x80)
	if !c.Write(0x80) {
		t.Fatal("write missed after fill")
	}
	if c.Stats.Writes != 2 || c.Stats.WriteMiss != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// Property: after Fill(addr), Lookup(addr) is always true, regardless of
// the preceding access sequence.
func TestQuickFillThenLookup(t *testing.T) {
	c := New(Config{Name: "q", SizeB: 4096, Ways: 4, LineB: 64})
	f := func(ops []uint64, addr uint64) bool {
		for _, a := range ops {
			switch a % 3 {
			case 0:
				c.Read(a)
			case 1:
				c.Write(a)
			case 2:
				c.Fill(a)
			}
		}
		c.Fill(addr)
		return c.Lookup(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the number of valid lines never exceeds capacity.
func TestQuickCapacityInvariant(t *testing.T) {
	c := New(Config{Name: "q2", SizeB: 2048, Ways: 2, LineB: 64})
	capacity := c.Sets() * c.Ways()
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			c.Fill(a)
		}
		return c.ValidLines() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// stampLRU is a reference true-LRU model with per-way access
// timestamps: on a fill, the first invalid way, else the smallest stamp.
type stampLRU struct {
	ways  int
	tags  []uint64
	valid []bool
	stamp []uint64
	clock uint64
}

func (m *stampLRU) access(set int, tag uint64) bool {
	m.clock++
	for i := set * m.ways; i < (set+1)*m.ways; i++ {
		if m.valid[i] && m.tags[i] == tag {
			m.stamp[i] = m.clock
			return true
		}
	}
	return false
}

func (m *stampLRU) fill(set int, tag uint64) (uint64, bool) {
	m.clock++
	victim := set * m.ways
	for i := set * m.ways; i < (set+1)*m.ways; i++ {
		if !m.valid[i] {
			m.tags[i], m.valid[i], m.stamp[i] = tag, true, m.clock
			return 0, false
		}
		if m.stamp[i] < m.stamp[victim] {
			victim = i
		}
	}
	old := m.tags[victim]
	m.tags[victim], m.stamp[victim] = tag, m.clock
	return old, true
}

// Property: the rank-based replacement makes exactly the choices of a
// timestamp LRU over any mix of reads, fills, updates and invalidations.
func TestQuickRankMatchesTimestampLRU(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "t", SizeB: 4 * 4 * 64, Ways: 4, LineB: 64})
		m := &stampLRU{ways: 4, tags: make([]uint64, 16), valid: make([]bool, 16), stamp: make([]uint64, 16)}
		for _, op := range ops {
			line := uint64(op & 0x3f) // 64 lines over 4 sets
			addr := line << 6
			set := int(line & 3)
			switch op >> 14 {
			case 0:
				if c.Read(addr) != m.access(set, line) {
					return false
				}
			case 1:
				if c.Update(addr) != m.access(set, line) {
					return false
				}
			case 2:
				ev, was := c.Fill(addr)
				mev, mwas := m.fill(set, line)
				if was != mwas || (was && ev != mev<<6) {
					return false
				}
			default:
				if op&0xfc0 == 0 {
					c.InvalidateAll()
					clear(m.valid)
				}
			}
		}
		n := 0
		for _, v := range m.valid {
			if v {
				n++
			}
		}
		return c.ValidLines() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
