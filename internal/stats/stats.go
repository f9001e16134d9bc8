// Package stats implements the statistical primitives the paper's analysis
// relies on: means, medians and percentiles, Pearson correlation, ordinary
// least squares with r², and the "delta variation percentage versus the
// week-9 baseline" transformation used in every figure.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty datasets.
var ErrEmpty = errors.New("stats: empty dataset")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks; xs need not be sorted and is
// left unmodified. It returns ErrEmpty for an empty slice.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return percentileSelect(cp, clampPct(p)), nil
}

// clampPct clamps a percentile to [0, 100].
func clampPct(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

// percentileSorted assumes xs is sorted ascending and non-empty; it is
// the closed form percentileSelect reproduces without the sort.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// fless is the ordering sort.Float64s used: ascending with NaN smaller
// than everything. The selection below must reproduce it exactly so the
// order statistics — and every percentile built from them — stay
// bit-identical to the sort-based implementation they replaced.
func fless(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectKth partially orders xs so that xs[k] holds the k-th order
// statistic, everything before it is ≤ and everything after is ≥
// (Hoare-style 3-way quickselect, median-of-three pivot, insertion sort
// below a small cutoff). O(n) expected, allocation-free — the KPI fold
// calls this per day per metric, where the full sort it replaced was
// the single largest profile entry of a sweep.
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs) // select within xs[lo:hi)
	for hi-lo > 16 {
		// Median-of-three pivot value.
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if fless(b, a) {
			a, b = b, a
		}
		if fless(c, b) { // median of {a ≤ b, c} is max(a, c)
			b = c
			if fless(b, a) {
				b = a
			}
		}
		p := b
		// 3-way partition: [lo,lt) < p, [lt,gt) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case fless(xs[i], p):
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case fless(p, xs[i]):
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // xs[k] sits in the == band
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && fless(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// percentileSelect computes the interpolated percentile of cp in place
// (cp is scratch, non-empty): the two closest-rank order statistics are
// located by selection instead of a full sort, with results identical
// to percentile-of-sorted.
func percentileSelect(cp []float64, p float64) float64 {
	if len(cp) == 1 {
		return cp[0]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectKth(cp, lo)
	x := cp[lo]
	if lo == hi {
		return x
	}
	// hi == lo+1, and after selectKth everything right of lo is ≥ the
	// k-th statistic: the (lo+1)-th is the minimum of that suffix.
	y := cp[lo+1]
	for _, v := range cp[lo+2:] {
		if fless(v, y) {
			y = v
		}
	}
	frac := rank - float64(lo)
	return x*(1-frac) + y*frac
}

// Median returns the 50th percentile of xs, or 0 for an empty slice.
// xs is left unmodified.
func Median(xs []float64) float64 {
	m, err := Percentile(xs, 50)
	if err != nil {
		return 0
	}
	return m
}

// MedianInPlace is Median over scratch: it reorders xs instead of
// copying it, and returns the same value bit for bit (an order
// statistic does not depend on input order).
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentileSelect(xs, 50)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns ErrEmpty if the slices are empty or of different lengths, and
// 0 if either variable has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// LinearFit holds the result of an ordinary-least-squares fit y = a + b·x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int     // number of points
}

// OLS fits y = a + b·x by ordinary least squares and reports r², as used
// for the census validation in Fig. 2 (r² = 0.955 in the paper).
func OLS(xs, ys []float64) (LinearFit, error) {
	if len(xs) < 2 || len(xs) != len(ys) {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x variance")
	}
	b := sxy / sxx
	fit := LinearFit{Intercept: my - b*mx, Slope: b, N: len(xs)}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// DeltaPercent returns the percentage change of value with respect to
// baseline, the transformation every figure in the paper applies:
// 100 · (value − baseline) / baseline. A zero baseline yields 0.
func DeltaPercent(value, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (value - baseline) / baseline
}

// DeltaPercentSeries maps DeltaPercent over a slice against one baseline.
func DeltaPercentSeries(values []float64, baseline float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = DeltaPercent(v, baseline)
	}
	return out
}

// MinMax returns the smallest and largest element of xs. It returns
// ErrEmpty for an empty slice.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// ArgMin returns the index of the smallest element, or -1 for empty xs.
func ArgMin(xs []float64) int {
	idx := -1
	for i, x := range xs {
		if idx < 0 || x < xs[idx] {
			idx = i
		}
	}
	return idx
}

// ArgMax returns the index of the largest element, or -1 for empty xs.
func ArgMax(xs []float64) int {
	idx := -1
	for i, x := range xs {
		if idx < 0 || x > xs[idx] {
			idx = i
		}
	}
	return idx
}
