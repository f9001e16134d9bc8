package stream

import (
	"fmt"
	"math"

	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// QSketch is a mergeable streaming quantile sketch over non-negative
// values, built for the §2.4 per-day KPI medians at scales where
// retaining every cell's value is not an option. It is an HDR-style
// histogram: log-spaced bins with a fixed number of bins per decade, so
// any quantile is answered with bounded *relative* error (about
// 10^(1/bpd)-1; ~7.5% at the default 32 bins per decade) in O(1) memory.
//
// Unlike the P² estimator in internal/stats — which is order-sensitive
// and cannot be combined — bin counts add, so per-shard sketches merged
// in any order equal one sketch fed the whole stream. That makes QSketch
// results shard- and worker-count invariant by construction.
//
// Values below Lo (including zero) are tracked exactly in an underflow
// count; values above Hi saturate into the top bin. Negative values are
// clamped to the underflow count (KPI metrics are non-negative).
type QSketch struct {
	bins  []int64
	under int64
	count int64
}

// Sketch resolution. Lo/Hi bound the resolvable magnitude range; KPI
// values (MB, users, load fractions, Mbps, loss percentages) all fall
// well inside it.
const (
	sketchBPD = 32   // bins per decade
	sketchLo  = 1e-9 // smallest resolvable magnitude
	sketchHi  = 1e12 // largest resolvable magnitude
	sketchLgL = -9.0 // log10(sketchLo)
	sketchLgH = 12.0 // log10(sketchHi)
)

// QSketchBins is the number of bins of every sketch this build makes:
// QSketchState windows index into [0, QSketchBins).
const QSketchBins = int((sketchLgH - sketchLgL) * sketchBPD)

// NewQSketch returns an empty sketch.
func NewQSketch() *QSketch { return &QSketch{bins: make([]int64, QSketchBins)} }

// Reset empties the sketch for reuse.
func (q *QSketch) Reset() {
	for i := range q.bins {
		q.bins[i] = 0
	}
	q.under, q.count = 0, 0
}

// Add feeds one observation.
func (q *QSketch) Add(x float64) {
	q.count++
	if !(x >= sketchLo) { // catches < Lo, zero, negatives and NaN
		q.under++
		return
	}
	i := int((math.Log10(x) - sketchLgL) * sketchBPD)
	if i >= QSketchBins {
		i = QSketchBins - 1
	}
	q.bins[i]++
}

// Merge adds another sketch's counts; merging is exact and commutative.
func (q *QSketch) Merge(o *QSketch) { q.add(0, o.bins, o.under, o.count) }

// add adds bins to the sketch's bins from index lo on.
func (q *QSketch) add(lo int, bins []int64, under, count int64) {
	q.count += count
	q.under += under
	for i, c := range bins {
		q.bins[lo+i] += c
	}
}

// N returns the number of observations fed.
func (q *QSketch) N() int64 { return q.count }

// Quantile returns the estimated p-quantile (0 <= p <= 1): the geometric
// midpoint of the bin holding the rank-⌈p·n⌉ observation, or 0 when the
// rank falls in the underflow count or the sketch is empty.
func (q *QSketch) Quantile(p float64) float64 {
	if q.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(q.count)))
	if rank < 1 {
		rank = 1
	}
	if rank <= q.under {
		return 0
	}
	cum := q.under
	for i, c := range q.bins {
		cum += c
		if cum >= rank {
			lo := sketchLgL + float64(i)/sketchBPD
			return math.Pow(10, lo+0.5/sketchBPD)
		}
	}
	return sketchHi
}

// Median is Quantile(0.5).
func (q *QSketch) Median() float64 { return q.Quantile(0.5) }

// Fork returns an independent copy of the sketch: both copies can keep
// Adding without sharing state, and (bins being pure counts) merging a
// fork back is exact.
func (q *QSketch) Fork() *QSketch {
	return &QSketch{bins: append([]int64(nil), q.bins...), under: q.under, count: q.count}
}

// QSketchState is a snapshot of a sketch's counts, windowed: Bins[i] is
// the count of bin Lo+i, and every bin outside [Lo, Lo+len(Bins)) is
// zero. A day's KPI sketch occupies a few dozen of the QSketchBins
// bins, so the window keeps snapshots (and the partial files' decoded
// copies of them) a small fraction of the dense size.
type QSketchState struct {
	Lo    int
	Bins  []int64
	Under int64
	Count int64
}

// State snapshots the sketch (deep copy) for serialization. The window
// runs from the first to the last non-zero bin; an empty sketch, or one
// holding only underflow, has no bins.
func (q *QSketch) State() QSketchState {
	st := QSketchState{Under: q.under, Count: q.count}
	lo, hi := 0, len(q.bins)
	for lo < hi && q.bins[lo] == 0 {
		lo++
	}
	for hi > lo && q.bins[hi-1] == 0 {
		hi--
	}
	if lo < hi {
		st.Lo, st.Bins = lo, append([]int64(nil), q.bins[lo:hi]...)
	}
	return st
}

// MergeState adds a snapshot's counts to the sketch in place, exactly
// as Merge adds a live sketch's, so folding states into a Reset sketch
// rebuilds their merge without allocating. A snapshot whose window
// reaches outside [0, QSketchBins) is rejected and leaves the sketch
// unchanged.
func (q *QSketch) MergeState(st QSketchState) error {
	if st.Lo < 0 || len(st.Bins) > QSketchBins-st.Lo {
		return fmt.Errorf("stream: sketch snapshot window [%d,%d) lies outside this build's %d bins",
			st.Lo, st.Lo+len(st.Bins), QSketchBins)
	}
	q.add(st.Lo, st.Bins, st.Under, st.Count)
	return nil
}

// --- sharded KPI medians ------------------------------------------------

// KPIDay is one day of sketch-estimated national KPI medians.
type KPIDay struct {
	Day     timegrid.SimDay
	Medians [traffic.NumMetrics]float64
	Cells   int
}

// KPIMedians is a KPISharder maintaining streaming per-day median
// estimates of every KPI metric across all cells, with per-shard
// sketches merged at end of day. It powers the rolling summaries of
// cmd/mnostream; the exact medians of the figures still come from
// core.KPIAnalyzer in the merge stage.
type KPIMedians struct {
	shards [][]*QSketch // [shard][metric]
	merged []*QSketch   // [metric], reused each day
	days   []KPIDay
	cells  int
}

// NewKPIMedians builds the sharded sketch stage.
func NewKPIMedians(shards int) *KPIMedians {
	k := &KPIMedians{
		shards: make([][]*QSketch, shards),
		merged: make([]*QSketch, traffic.NumMetrics),
	}
	for s := range k.shards {
		k.shards[s] = make([]*QSketch, traffic.NumMetrics)
		for m := range k.shards[s] {
			k.shards[s][m] = NewQSketch()
		}
	}
	for m := range k.merged {
		k.merged[m] = NewQSketch()
	}
	return k
}

// BeginDay resets every shard sketch.
func (k *KPIMedians) BeginDay(_ timegrid.SimDay, cells []traffic.CellDay) {
	k.cells = len(cells)
	for _, ms := range k.shards {
		for _, q := range ms {
			q.Reset()
		}
	}
}

// ShardDay feeds the shard's cells into its sketches.
func (k *KPIMedians) ShardDay(shard int, _ timegrid.SimDay, cells []traffic.CellDay, idx []int) {
	ms := k.shards[shard]
	for _, i := range idx {
		c := &cells[i]
		for m := 0; m < traffic.NumMetrics; m++ {
			ms[m].Add(c.Values[m])
		}
	}
}

// EndDay merges the shard sketches and records the day's medians.
func (k *KPIMedians) EndDay(day timegrid.SimDay) {
	if k.cells == 0 {
		return
	}
	d := KPIDay{Day: day, Cells: k.cells}
	for m := 0; m < traffic.NumMetrics; m++ {
		k.merged[m].Reset()
		for _, ms := range k.shards {
			k.merged[m].Merge(ms[m])
		}
		d.Medians[m] = k.merged[m].Median()
	}
	k.days = append(k.days, d)
}

// Days returns the recorded daily median rows, in day order.
func (k *KPIMedians) Days() []KPIDay { return k.days }
