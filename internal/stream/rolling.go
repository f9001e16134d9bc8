package stream

import (
	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

// MobilityDay is one day of rolling national mobility averages.
type MobilityDay struct {
	Day         timegrid.SimDay
	Users       int
	AvgEntropy  float64
	AvgGyration float64
}

// RollingMobility is a TraceSharder computing incremental per-day
// national averages of the §2.3 mobility metrics over every simulated
// day (not just the study window) — the rolling monitor behind
// cmd/mnostream. Per-shard partial sums are merged in shard order, so
// rows are deterministic for a fixed shard count; the exact figure-grade
// aggregates remain core.MobilityAnalyzer's job.
type RollingMobility struct {
	topo *radio.Topology
	topN int
	// per shard: sum entropy, sum gyration, users — and a merge scratch,
	// since ShardDay calls run concurrently.
	sums    [][3]float64
	mergers []core.VisitMerger
	last    MobilityDay
}

// NewRollingMobility builds the rolling stage.
func NewRollingMobility(topo *radio.Topology, topN, shards int) *RollingMobility {
	return &RollingMobility{
		topo:    topo,
		topN:    topN,
		sums:    make([][3]float64, shards),
		mergers: make([]core.VisitMerger, shards),
	}
}

// BeginDay clears the shard partials.
func (r *RollingMobility) BeginDay(timegrid.SimDay, []mobsim.DayTrace) {
	for i := range r.sums {
		r.sums[i] = [3]float64{}
	}
}

// ShardDay accumulates the shard's user metrics.
func (r *RollingMobility) ShardDay(shard int, _ timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	s := &r.sums[shard]
	mg := &r.mergers[shard]
	for _, i := range idx {
		m := mg.DayMetrics(&traces[i], r.topo, r.topN)
		s[0] += m.Entropy
		s[1] += m.Gyration
		s[2]++
	}
}

// EndDay merges the shard partials into the day's row.
func (r *RollingMobility) EndDay(day timegrid.SimDay) {
	var e, g, n float64
	for i := range r.sums {
		e += r.sums[i][0]
		g += r.sums[i][1]
		n += r.sums[i][2]
	}
	d := MobilityDay{Day: day, Users: int(n)}
	if n > 0 {
		d.AvgEntropy = e / n
		d.AvgGyration = g / n
	}
	r.last = d
}

// Last returns the most recent row (zero value when none yet).
func (r *RollingMobility) Last() MobilityDay { return r.last }

// Last returns the most recent KPI median row (zero value when none).
func (k *KPIMedians) Last() KPIDay { return k.last }
