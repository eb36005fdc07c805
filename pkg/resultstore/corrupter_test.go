package resultstore

import (
	"bytes"
	"math/rand"
	"testing"
)

// corrupter deterministically mangles segment bytes for the torn-tail
// and flipped-byte tests and the segment-replay fuzz seeds, so each
// damaged file is replayable from its seed.
type corrupter struct{ rng *rand.Rand }

func newCorrupter(seed int64) *corrupter {
	return &corrupter{rng: rand.New(rand.NewSource(seed))}
}

// flipByte inverts one PRNG-chosen byte of b in place and returns its
// index (-1 for an empty slice).
func (c *corrupter) flipByte(b []byte) int {
	return c.flipByteIn(b, 0, len(b))
}

// flipByteIn is flipByte restricted to b[from:to] — corrupting a known
// region (one record's value) while leaving framing around it intact.
func (c *corrupter) flipByteIn(b []byte, from, to int) int {
	if from < 0 || to > len(b) || from >= to {
		return -1
	}
	i := from + c.rng.Intn(to-from)
	b[i] ^= 0xff
	return i
}

// tornTail returns how many tail bytes to chop off an n-byte file to
// simulate a crash mid-append: 1..max(1, limit) bytes, never the whole
// file.
func (c *corrupter) tornTail(n, limit int) int {
	if n <= 1 {
		return 0
	}
	if limit < 1 || limit > n-1 {
		limit = n - 1
	}
	return 1 + c.rng.Intn(limit)
}

func TestCorrupterDeterminism(t *testing.T) {
	mk := func() []byte { return bytes.Repeat([]byte{0x11}, 64) }
	a, b := mk(), mk()
	i := newCorrupter(5).flipByte(a)
	j := newCorrupter(5).flipByte(b)
	if i != j || !bytes.Equal(a, b) {
		t.Fatalf("same seed corrupted different bytes: %d vs %d", i, j)
	}
	if a[i] != 0x11^0xff {
		t.Errorf("byte %d = %#x, want flipped", i, a[i])
	}
	c := newCorrupter(5)
	if n := c.tornTail(100, 16); n < 1 || n > 16 {
		t.Errorf("tornTail = %d, want 1..16", n)
	}
	if n := c.tornTail(1, 8); n != 0 {
		t.Errorf("tornTail of 1-byte file = %d, want 0", n)
	}
	if idx := newCorrupter(9).flipByteIn(mk(), 10, 20); idx < 10 || idx >= 20 {
		t.Errorf("flipByteIn = %d, want in [10,20)", idx)
	}
}
