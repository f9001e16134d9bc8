package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// Interpolation between ranks.
	got, _ := Percentile([]float64{10, 20}, 50)
	if !almostEq(got, 15, 1e-12) {
		t.Errorf("interp percentile = %v, want 15", got)
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("expected ErrEmpty, got %v", err)
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, _ := Percentile(clean, p1)
		v2, _ := Percentile(clean, p2)
		return v1 <= v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if r, _ := Pearson(xs, xs); !almostEq(r, 1, 1e-12) {
		t.Errorf("self correlation = %v", r)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if r, _ := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("anti correlation = %v", r)
	}
	if r, _ := Pearson(xs, []float64{7, 7, 7, 7, 7}); r != 0 {
		t.Errorf("zero-variance correlation = %v", r)
	}
	if _, err := Pearson(xs, []float64{1}); err != ErrEmpty {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Error("empty should error")
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				return true
			}
			// Bound magnitudes to avoid float overflow artifacts.
			if math.Abs(p[0]) > 1e100 || math.Abs(p[1]) > 1e100 {
				return true
			}
			xs[i], ys[i] = p[0], p[1]
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOLS(t *testing.T) {
	// Perfect line y = 3 + 2x.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9, 11}
	fit, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-9) || !almostEq(fit.Intercept, 3, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-9) {
		t.Errorf("r² = %v, want 1", fit.R2)
	}
	// Noisy line has r² < 1 but positive slope.
	ys2 := []float64{3, 6, 6, 10, 10}
	fit2, _ := OLS(xs, ys2)
	if fit2.R2 >= 1 || fit2.R2 <= 0.5 {
		t.Errorf("noisy r² = %v", fit2.R2)
	}
	if _, err := OLS([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
	if _, err := OLS([]float64{1}, []float64{2}); err != ErrEmpty {
		t.Error("short input should be ErrEmpty")
	}
}

func TestDeltaPercent(t *testing.T) {
	if got := DeltaPercent(110, 100); !almostEq(got, 10, 1e-12) {
		t.Errorf("DeltaPercent = %v", got)
	}
	if got := DeltaPercent(75, 100); !almostEq(got, -25, 1e-12) {
		t.Errorf("DeltaPercent = %v", got)
	}
	if got := DeltaPercent(5, 0); got != 0 {
		t.Errorf("zero baseline should yield 0, got %v", got)
	}
	s := DeltaPercentSeries([]float64{100, 50, 150}, 100)
	want := []float64{0, -50, 50}
	for i := range want {
		if !almostEq(s[i], want[i], 1e-12) {
			t.Errorf("series[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	min, max, err := MinMax(xs)
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v, %v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("expected ErrEmpty")
	}
	if got := ArgMin(xs); got != 1 {
		t.Errorf("ArgMin = %d", got)
	}
	if got := ArgMax(xs); got != 2 {
		t.Errorf("ArgMax = %d", got)
	}
	if ArgMin(nil) != -1 || ArgMax(nil) != -1 {
		t.Error("Arg* of empty should be -1")
	}
}

// TestPercentileSelectMatchesSort pins the selection-based percentile
// machinery to the sort-based definition it replaced: for adversarial
// inputs (duplicates, constants, NaNs, already-sorted, reversed) and a
// deterministic random sweep, every percentile must be bit-identical to
// percentile-of-sorted (NaN treated as smaller than every number, as
// sort.Float64s orders it).
func TestPercentileSelectMatchesSort(t *testing.T) {
	ref := func(xs []float64, p float64) float64 {
		cp := make([]float64, len(xs))
		copy(cp, xs)
		sort.Float64s(cp)
		if len(cp) == 1 {
			return cp[0]
		}
		rank := p / 100 * float64(len(cp)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			return cp[lo]
		}
		frac := rank - float64(lo)
		return cp[lo]*(1-frac) + cp[hi]*frac
	}
	nan := math.NaN()
	cases := [][]float64{
		{1},
		{2, 1},
		{5, 5, 5, 5, 5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
		{18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{nan, 3, 1, nan, 2},
		{nan, nan, nan},
		{0, -0.0, 1e-300, -1e300, math.Inf(1), math.Inf(-1)},
	}
	// Deterministic LCG sweep: sizes crossing the insertion cutoff, heavy
	// duplicate mass.
	state := uint64(1)
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
	for size := 1; size <= 257; size += 16 {
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = float64(next()%23) / 7
		}
		cases = append(cases, xs)
	}
	ps := []float64{0, 3.7, 10, 25, 50, 74.9, 90, 99, 100}
	for ci, xs := range cases {
		orig := make([]float64, len(xs))
		copy(orig, xs)
		for _, p := range ps {
			want := ref(orig, p)
			one, err := Percentile(xs, p)
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			same := one == want || (math.IsNaN(one) && math.IsNaN(want))
			if !same {
				t.Errorf("case %d p=%v: Percentile = %v, want %v", ci, p, one, want)
			}
		}
		for i := range xs {
			same := xs[i] == orig[i] || (math.IsNaN(xs[i]) && math.IsNaN(orig[i]))
			if !same {
				t.Fatalf("case %d: input mutated at %d", ci, i)
			}
		}
	}
}

// inPlaceCases are tie-heavy inputs, with and without NaN, for the
// in-place/copying parity tests.
func inPlaceCases() [][]float64 {
	nan := math.NaN()
	cases := [][]float64{
		{7},
		{nan},
		{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		{nan, 3, 1, nan, 2, 2, 2, nan},
		{0, -0.0, 0, -0.0, 1, 1, -0.0, 0, 0, 1, 1, 1, 0, -0.0, 0, 0, 1, 0},
		{math.Inf(1), nan, math.Inf(-1), 0, nan, math.Inf(1)},
	}
	state := uint64(7)
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
	for size := 2; size <= 300; size += 37 {
		xs := make([]float64, size)
		for i := range xs {
			if r := next() % 11; r == 0 {
				xs[i] = nan
			} else {
				xs[i] = float64(r % 4)
			}
		}
		cases = append(cases, xs)
	}
	return cases
}

// TestInPlaceMatchesCopying pins MedianInPlace to the copying Median
// bit for bit on tie-heavy and NaN inputs.
func TestInPlaceMatchesCopying(t *testing.T) {
	for ci, xs := range inPlaceCases() {
		want := Median(xs)
		scratch := append([]float64(nil), xs...)
		if got := MedianInPlace(scratch); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("case %d: MedianInPlace = %v, Median = %v", ci, got, want)
		}
	}
	if got := MedianInPlace(nil); got != 0 {
		t.Errorf("MedianInPlace(nil) = %v, want 0", got)
	}
}

// TestCopyingFormsLeaveInputUnmodified pins the non-mutating contract of
// Median and Percentile that callers holding live series
// (WeeklyDeltaSeries among them) rely on.
func TestCopyingFormsLeaveInputUnmodified(t *testing.T) {
	for ci, xs := range inPlaceCases() {
		orig := make([]uint64, len(xs))
		for i, x := range xs {
			orig[i] = math.Float64bits(x)
		}
		check := func(name string) {
			t.Helper()
			for i, x := range xs {
				if math.Float64bits(x) != orig[i] {
					t.Fatalf("case %d: %s mutated its input at %d", ci, name, i)
				}
			}
		}
		Median(xs)
		check("Median")
		Percentile(xs, 75)
		check("Percentile")
	}
}
