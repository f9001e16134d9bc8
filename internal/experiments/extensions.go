package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// BinsAndBands is an extension experiment beyond the paper's figures:
// it folds the study window through (a) the §2.3 per-4-hour-bin
// aggregation and (b) streaming percentile bands over the per-user daily
// metrics, verifying two statements the paper makes in passing — the
// per-bin statistics exist ("six disjoint 4-hour bins of the day") and
// "all percentiles are close to the median, following similar trends".
//
// The bin analysis costs an extra metrics pass per user-day, so it is
// not part of Results: attach Tap to a RunStreamingOn run, then read
// Figure.
type BinsAndBands struct {
	bins  *core.BinAnalyzer
	bands *core.BandAnalyzer
}

// ExtBinsAndBands returns the bins-and-bands experiment over d's
// population, ready to be tapped into a RunStreamingOn run of d.
func ExtBinsAndBands(d *Dataset) *BinsAndBands {
	return &BinsAndBands{
		bins:  core.NewBinAnalyzer(d.Pop, d.Config.TopN),
		bands: core.NewBandAnalyzer(d.Pop, d.Config.TopN),
	}
}

// Tap is the experiment's DayTap; days before the study window are
// ignored.
func (e *BinsAndBands) Tap(day timegrid.SimDay, traces []mobsim.DayTrace, _ []traffic.CellDay) {
	e.bins.ConsumeDay(day, traces)
	e.bands.ConsumeDay(day, traces)
}

// Figure renders the experiment from the days tapped so far.
func (e *BinsAndBands) Figure() *Figure {
	f := &Figure{ID: "ext-bins", Title: "Extension: per-bin mobility and percentile bands"}
	// Per-bin gyration, weekly deltas against each bin's own week 9.
	tb := stats.Table{Title: "gyration Δ% vs own week 9, per 4-hour bin (weekly means)", ColNames: weekColNames()}
	binDrop := map[timegrid.Bin]float64{}
	for b := timegrid.Bin(0); int(b) < timegrid.BinsPerDay; b++ {
		s := e.bins.BinSeries(b, core.MetricGyration)
		base := stats.Mean(s.Values[:7])
		if base == 0 {
			continue
		}
		w := weeklyMeanDelta(s, base)
		tb.AddRow(b.String(), w)
		binDrop[b] = minOver(w, 13, 15)
	}
	f.Tables = append(f.Tables, tb)

	// Percentile band of the daily gyration distribution.
	band := e.bands.Band(core.MetricGyration)
	bt := stats.Table{Title: "gyration percentile band across users (daily, km)", ColNames: nil}
	bt.AddRow("p10", band.P10)
	bt.AddRow("p25", band.P25)
	bt.AddRow("p50", band.P50)
	bt.AddRow("p75", band.P75)
	bt.AddRow("p90", band.P90)
	f.Tables = append(f.Tables, bt)

	// Checks: the evening-commute bin (16-20h) collapses far more than
	// the night bin (00-04h), and the percentile tracks co-move with the
	// median (their week-13 drop has the same sign and order of
	// magnitude).
	f.checkTrue("evening-commute bin collapses more than the night bin",
		binDrop[4] < binDrop[0]-10,
		fmt.Sprintf("bin4 %.1f vs bin0 %.1f", binDrop[4], binDrop[0]),
		"≥10 points deeper")
	dropOf := func(track []float64) float64 {
		base := stats.Mean(track[:7])
		w := weeklyMeanDelta(stats.Series{Values: track}, base)
		return weekValue(w, 14)
	}
	p25drop, p50drop, p75drop := dropOf(band.P25), dropOf(band.P50), dropOf(band.P75)
	f.checkTrue("percentile tracks follow the median's collapse",
		p25drop < -15 && p50drop < -25 && p75drop < -25,
		fmt.Sprintf("p25 %.1f, p50 %.1f, p75 %.1f (w14)", p25drop, p50drop, p75drop),
		"all strongly negative")
	f.Notes = append(f.Notes,
		"the paper notes metrics distributions have little variance and percentiles follow the median (§3.2)")
	return f
}
