package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced a stuck stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn(10) never produced %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestGeometricMean(t *testing.T) {
	s := New(5)
	for _, m := range []float64{2, 6, 12} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			v := s.Geometric(m)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", m, v)
			}
			sum += float64(v)
		}
		mean := sum / n
		if math.Abs(mean-m)/m > 0.1 {
			t.Errorf("Geometric(%v) mean = %v", m, mean)
		}
	}
}

func TestGeometricDegenerate(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if v := s.Geometric(0.5); v != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", v)
		}
	}
}

// TestGeometricSamplerMatchesGeometric checks the prepared sampler
// against Geometric draw for draw, including the means at and below 1
// that consume no draw: the two sources must stay in step.
func TestGeometricSamplerMatchesGeometric(t *testing.T) {
	for _, m := range []float64{-3, 0, 0.5, 1, 1.0000001, 1.1, 1.5, 2, 2.5, 3, 4.7, 6, 12, 50, 1e6} {
		ref, got := New(7), New(7)
		g := NewGeometricSampler(m)
		for i := 0; i < 20000; i++ {
			want := ref.Geometric(m)
			if v := g.Draw(got); v != want {
				t.Fatalf("m=%v draw %d: sampler %d, Geometric %d", m, i, v, want)
			}
		}
		if ref.Uint64() != got.Uint64() {
			t.Fatalf("m=%v: the sources drifted apart", m)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(9)
	const n = 64
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		v := s.Zipf(n, 0.9)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	lowHalf, highHalf := 0, 0
	for i, c := range counts {
		if i < n/2 {
			lowHalf += c
		} else {
			highHalf += c
		}
	}
	if lowHalf <= highHalf*2 {
		t.Errorf("Zipf not skewed: low=%d high=%d", lowHalf, highHalf)
	}
}

func TestZipfDegenerate(t *testing.T) {
	s := New(1)
	if v := s.Zipf(1, 0.9); v != 0 {
		t.Errorf("Zipf(1) = %d, want 0", v)
	}
	if v := s.Zipf(0, 0.9); v != 0 {
		t.Errorf("Zipf(0) = %d, want 0", v)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(77)
	b := a.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("split streams collided %d times", same)
	}
}

func TestQuickUint64nBound(t *testing.T) {
	s := New(123)
	f := func(n uint64) bool {
		n = n%1000 + 1
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntnBound(t *testing.T) {
	s := New(321)
	f := func(n int) bool {
		if n < 0 {
			n = -n
		}
		n = n%1000 + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
