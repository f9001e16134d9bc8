package core

import (
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/stats"
	"repro/internal/timegrid"
)

// BinAnalyzer aggregates national mobility metrics per 4-hour bin of the
// day: the paper generates statistics "over six disjoint 4-hour bins of
// the day … and also over the entire day" (§2.3). It shows the diurnal
// structure of the lockdown response — daytime bins collapse, night bins
// barely move.
type BinAnalyzer struct {
	pop  *popsim.Population
	topN int
	mg   VisitMerger // per-user merge scratch, reused across the stream

	sumE [timegrid.BinsPerDay][timegrid.StudyDays]float64
	sumG [timegrid.BinsPerDay][timegrid.StudyDays]float64
	n    [timegrid.BinsPerDay][timegrid.StudyDays]int
}

// NewBinAnalyzer returns an analyzer with the paper's top-N filter.
func NewBinAnalyzer(pop *popsim.Population, topN int) *BinAnalyzer {
	return &BinAnalyzer{pop: pop, topN: topN}
}

// ConsumeDay ingests one simulated day; February days are ignored.
func (a *BinAnalyzer) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	sd, ok := day.ToStudyDay()
	if !ok {
		return
	}
	topo := a.pop.Topology()
	for i := range traces {
		ms := a.mg.AllBinMetrics(&traces[i], topo, a.topN)
		for b := 0; b < timegrid.BinsPerDay; b++ {
			if ms[b].Towers == 0 {
				continue
			}
			a.sumE[b][sd] += ms[b].Entropy
			a.sumG[b][sd] += ms[b].Gyration
			a.n[b][sd]++
		}
	}
}

// BinSeries returns the national daily average of the metric within the
// given 4-hour bin.
func (a *BinAnalyzer) BinSeries(bin timegrid.Bin, metric MobilityMetric) stats.Series {
	s := stats.NewSeries(bin.String(), timegrid.StudyDays)
	for d := 0; d < timegrid.StudyDays; d++ {
		if a.n[bin][d] == 0 {
			continue
		}
		switch metric {
		case MetricEntropy:
			s.Values[d] = a.sumE[bin][d] / float64(a.n[bin][d])
		default:
			s.Values[d] = a.sumG[bin][d] / float64(a.n[bin][d])
		}
	}
	return s
}

// BandAnalyzer tracks the per-user distribution of the daily mobility
// metrics with streaming quantile estimators (P²), supporting the
// paper's observation that "metrics distributions have little variance
// in all regions, and all percentiles are close to the median" (§3.2).
type BandAnalyzer struct {
	pop  *popsim.Population
	topN int
	mg   VisitMerger // per-user merge scratch, reused across the stream

	gyr [timegrid.StudyDays]*stats.QuantileBand
	ent [timegrid.StudyDays]*stats.QuantileBand
}

// bandQuantiles are the tracked quantiles: P10, P25, P50, P75, P90.
var bandQuantiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90}

// NewBandAnalyzer returns a band analyzer.
func NewBandAnalyzer(pop *popsim.Population, topN int) *BandAnalyzer {
	a := &BandAnalyzer{pop: pop, topN: topN}
	for d := 0; d < timegrid.StudyDays; d++ {
		a.gyr[d] = stats.NewQuantileBand(bandQuantiles...)
		a.ent[d] = stats.NewQuantileBand(bandQuantiles...)
	}
	return a
}

// ConsumeDay ingests one simulated day; February days are ignored.
func (a *BandAnalyzer) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	sd, ok := day.ToStudyDay()
	if !ok {
		return
	}
	topo := a.pop.Topology()
	for i := range traces {
		m := a.mg.DayMetrics(&traces[i], topo, a.topN)
		a.gyr[sd].Add(m.Gyration)
		a.ent[sd].Add(m.Entropy)
	}
}

// Band returns the daily percentile band of the metric.
func (a *BandAnalyzer) Band(metric MobilityMetric) stats.Band {
	b := stats.Band{
		Label: metric.String(),
		P10:   make([]float64, timegrid.StudyDays),
		P25:   make([]float64, timegrid.StudyDays),
		P50:   make([]float64, timegrid.StudyDays),
		P75:   make([]float64, timegrid.StudyDays),
		P90:   make([]float64, timegrid.StudyDays),
	}
	for d := 0; d < timegrid.StudyDays; d++ {
		var qb *stats.QuantileBand
		if metric == MetricEntropy {
			qb = a.ent[d]
		} else {
			qb = a.gyr[d]
		}
		vals := qb.Values()
		b.P10[d], b.P25[d], b.P50[d], b.P75[d], b.P90[d] = vals[0], vals[1], vals[2], vals[3], vals[4]
	}
	return b
}
