package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	s1 := parent.Split(1)
	s2 := parent.Split(2)
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams with different keys should differ")
	}
	// Splitting must not advance the parent.
	p1, p2 := New(7), New(7)
	p1.Split(99)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Split advanced the parent stream")
	}
}

func TestSplitReproducible(t *testing.T) {
	a := New(42).Split(10).Split(20)
	b := New(42).Split(10).Split(20)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("nested split streams diverged at %d", i)
		}
	}
	st := Stream2(42, 10, 20)
	if st.Uint64() != New(42).Split(10).Split(20).Uint64() {
		t.Error("Stream2 should equal the nested splits")
	}
	c := New(42).Split(20).Split(10)
	if New(42).Split(10).Split(20).Uint64() == c.Uint64() {
		t.Error("nested splits should not be symmetric in their labels")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		x := s.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", x)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	s := New(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[s.Intn(10)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(10) value %d drawn %d times, expected ≈1000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("IntRange(3,7) never produced %d", v)
		}
	}
	if got := s.IntRange(5, 5); got != 5 {
		t.Errorf("IntRange(5,5) = %d", got)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(5)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := s.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v, want ≈1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(6)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		x := s.Exp(3.5)
		if x < 0 {
			t.Fatalf("Exp() = %v < 0", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.1 {
		t.Errorf("Exp(3.5) mean = %v", mean)
	}
}

func TestPoisson(t *testing.T) {
	s := New(7)
	for _, mean := range []float64{0.3, 2, 10, 100} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			k := s.Poisson(mean)
			if k < 0 {
				t.Fatalf("Poisson < 0")
			}
			sum += float64(k)
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.08+0.08 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if got := New(1).Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := New(1).Poisson(-5); got != 0 {
		t.Errorf("Poisson(-5) = %d", got)
	}
}

func TestPick(t *testing.T) {
	s := New(8)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	for i := 0; i < 40000; i++ {
		counts[s.Pick(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight entries picked: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.6 || ratio > 3.4 {
		t.Errorf("weight-3 / weight-1 ratio = %v, want ≈3", ratio)
	}
	// All-zero weights fall back to index 0.
	if got := s.Pick([]float64{0, 0}); got != 0 {
		t.Errorf("Pick(all zero) = %d", got)
	}
}

func TestPickPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pick(empty) should panic")
		}
	}()
	New(1).Pick(nil)
}

func TestBool(t *testing.T) {
	s := New(10)
	n := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.25) {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Errorf("Bool(0.25) true %d/10000 times", n)
	}
	if New(1).Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !New(1).Bool(1.1) {
		t.Error("Bool(>1) must be true")
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Hash64(i)
		if seen[h] {
			t.Fatalf("Hash64 collision at %d", i)
		}
		seen[h] = true
	}
}

func TestRangeProperty(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e15 || math.Abs(b) > 1e15 {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		x := New(seed).Range(lo, hi)
		return x >= lo && (x <= hi || lo == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
