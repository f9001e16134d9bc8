package experiments

import (
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Headline is one summary statistic of a run, used when comparing
// scenarios (counterfactual timelines, parameter sweeps).
type Headline struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Headlines extracts the run's headline statistics: the troughs, peaks
// and means that summarise every figure.
func Headlines(r *Results) []Headline {
	var out []Headline
	add := func(name string, v float64) { out = append(out, Headline{name, v}) }

	gyr := r.Mobility.NationalSeries(core.MetricGyration)
	ent := r.Mobility.NationalSeries(core.MetricEntropy)
	gw := weeklyMeanDelta(gyr, stats.Mean(gyr.Values[:7]))
	ew := weeklyMeanDelta(ent, stats.Mean(ent.Values[:7]))
	add("gyration trough Δ%", minOver(gw, 10, 19))
	add("entropy trough Δ%", minOver(ew, 10, 19))
	add("gyration weeks 18-19 Δ%", meanOver(gw, 18, 19))

	if r.KPI != nil {
		dl := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.DLVolume)).Values
		ul := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.ULVolume)).Values
		vol := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.VoiceVolume)).Values
		loss := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.VoiceDLLoss)).Values
		act := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.DLActiveUsers)).Values
		add("DL volume trough Δ%", minOver(dl, 10, 19))
		add("UL volume lockdown mean Δ%", meanOver(ul, 13, 19))
		add("voice volume peak Δ%", maxOverWeeks(vol, 10, 19))
		add("voice DL loss peak Δ%", maxOverWeeks(loss, 10, 19))
		add("DL active users trough Δ%", minOver(act, 10, 19))
	}
	if r.Matrix != nil && r.Matrix.CohortSize() > 0 {
		home := r.Matrix.HomePresenceSeries()
		hw := weeklyMeanDelta(home, stats.Mean(home.Values[:7]))
		add("Inner London home presence weeks 13-19 Δ%", meanOver(hw, 13, 19))
	}
	return out
}
