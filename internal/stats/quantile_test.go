package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestP2SmallSamples(t *testing.T) {
	e := NewP2Quantile(0.5)
	if e.Value() != 0 {
		t.Error("empty estimator should return 0")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Errorf("single-sample value = %v", e.Value())
	}
	e.Add(20)
	v := e.Value()
	if v < 10 || v > 20 {
		t.Errorf("two-sample median = %v", v)
	}
}

func TestP2MedianUniform(t *testing.T) {
	e := NewP2Quantile(0.5)
	src := rng.New(1)
	for i := 0; i < 50_000; i++ {
		e.Add(src.Float64())
	}
	if got := e.Value(); math.Abs(got-0.5) > 0.02 {
		t.Errorf("uniform median estimate = %v", got)
	}
	if e.n != 50_000 {
		t.Errorf("N = %d", e.n)
	}
}

func TestP2TailQuantiles(t *testing.T) {
	src := rng.New(2)
	e90 := NewP2Quantile(0.9)
	e10 := NewP2Quantile(0.1)
	for i := 0; i < 50_000; i++ {
		x := src.Float64()
		e90.Add(x)
		e10.Add(x)
	}
	if got := e90.Value(); math.Abs(got-0.9) > 0.03 {
		t.Errorf("p90 estimate = %v", got)
	}
	if got := e10.Value(); math.Abs(got-0.1) > 0.03 {
		t.Errorf("p10 estimate = %v", got)
	}
}

func TestP2NormalDistribution(t *testing.T) {
	src := rng.New(3)
	e := NewP2Quantile(0.75)
	var exact []float64
	for i := 0; i < 20_000; i++ {
		x := src.NormRange(100, 15)
		e.Add(x)
		exact = append(exact, x)
	}
	sort.Float64s(exact)
	want := percentileSorted(exact, 75)
	if math.Abs(e.Value()-want) > 1.0 {
		t.Errorf("p75 estimate = %v, exact %v", e.Value(), want)
	}
}

func TestP2ExtremeTargetsClamped(t *testing.T) {
	lo := NewP2Quantile(0)
	hi := NewP2Quantile(1)
	src := rng.New(4)
	for i := 0; i < 1000; i++ {
		x := src.Float64()
		lo.Add(x)
		hi.Add(x)
	}
	if lo.Value() > 0.1 {
		t.Errorf("q≈0 estimate = %v", lo.Value())
	}
	if hi.Value() < 0.9 {
		t.Errorf("q≈1 estimate = %v", hi.Value())
	}
}

func TestP2MonotoneStream(t *testing.T) {
	e := NewP2Quantile(0.5)
	for i := 1; i <= 1001; i++ {
		e.Add(float64(i))
	}
	if got := e.Value(); math.Abs(got-501) > 25 {
		t.Errorf("median of 1..1001 = %v", got)
	}
}

func TestQuantileBand(t *testing.T) {
	b := NewQuantileBand(0.1, 0.5, 0.9)
	src := rng.New(5)
	for i := 0; i < 30_000; i++ {
		b.Add(src.Float64())
	}
	vals := b.Values()
	if len(vals) != 3 {
		t.Fatalf("band values = %d", len(vals))
	}
	if !(vals[0] < vals[1] && vals[1] < vals[2]) {
		t.Errorf("band not ordered: %v", vals)
	}
	if math.Abs(vals[1]-0.5) > 0.03 {
		t.Errorf("band median = %v", vals[1])
	}
	for i, e := range b.ests {
		if e.n != 30_000 {
			t.Errorf("band quantile %d fed %d observations, want 30000", i, e.n)
		}
	}
}
