package stats

import "sort"

// P2Quantile is a streaming quantile estimator implementing the P²
// algorithm (Jain & Chlamtac, 1985): it tracks a single quantile of an
// unbounded stream with O(1) memory by maintaining five markers whose
// positions are adjusted with piecewise-parabolic interpolation.
//
// The KPI and mobility analyzers use it to expose the percentile bands
// the paper draws (e.g. "the metrics' distribution has little variance
// in all regions") without retaining per-entity samples.
type P2Quantile struct {
	p       float64 // target quantile in (0, 1)
	n       int     // observations seen
	heights [5]float64
	pos     [5]float64 // actual marker positions (1-based)
	desired [5]float64 // desired marker positions
	incr    [5]float64 // desired position increments per observation
	initial []float64  // first five observations, before steady state
}

// NewP2Quantile returns an estimator for the q-th quantile (0 < q < 1).
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 {
		q = 0.0001
	}
	if q >= 1 {
		q = 0.9999
	}
	e := &P2Quantile{p: q}
	e.desired = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	e.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return e
}

// Add feeds one observation.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if e.n <= 5 {
		e.initial = append(e.initial, x)
		if e.n == 5 {
			sort.Float64s(e.initial)
			for i := 0; i < 5; i++ {
				e.heights[i] = e.initial[i]
				e.pos[i] = float64(i + 1)
			}
			e.initial = nil
		}
		return
	}

	// Locate the cell containing x and update extreme heights.
	var k int
	switch {
	case x < e.heights[0]:
		e.heights[0] = x
		k = 0
	case x >= e.heights[4]:
		e.heights[4] = x
		k = 3
	default:
		for i := 1; i < 5; i++ {
			if x < e.heights[i] {
				k = i - 1
				break
			}
		}
	}

	// Shift positions of markers above the cell.
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.desired[i] += e.incr[i]
	}

	// Adjust the three interior markers if they drifted.
	for i := 1; i < 4; i++ {
		d := e.desired[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			h := e.parabolic(i, sign)
			if e.heights[i-1] < h && h < e.heights[i+1] {
				e.heights[i] = h
			} else {
				e.heights[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic computes the P² piecewise-parabolic height prediction.
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.heights[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.heights[i+1]-e.heights[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.heights[i]-e.heights[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.heights[i] + d*(e.heights[j]-e.heights[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it falls back to an exact small-sample quantile.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		cp := append([]float64(nil), e.initial...)
		sort.Float64s(cp)
		return percentileSorted(cp, e.p*100)
	}
	return e.heights[2]
}

// QuantileBand tracks a fixed set of quantiles of one stream, for
// analyzers that cannot retain all samples.
type QuantileBand struct {
	ests []*P2Quantile
}

// NewQuantileBand returns a band tracking the given quantiles (0–1).
func NewQuantileBand(qs ...float64) *QuantileBand {
	b := &QuantileBand{}
	for _, q := range qs {
		b.ests = append(b.ests, NewP2Quantile(q))
	}
	return b
}

// Add feeds one observation to every tracked quantile.
func (b *QuantileBand) Add(x float64) {
	for _, e := range b.ests {
		e.Add(x)
	}
}

// Values returns the current estimates, in the order the quantiles were
// given.
func (b *QuantileBand) Values() []float64 {
	out := make([]float64, len(b.ests))
	for i, e := range b.ests {
		out[i] = e.Value()
	}
	return out
}
