package core

import (
	"math"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/stats"
	"repro/internal/timegrid"
)

func TestComputeAllBinMetricsConsistent(t *testing.T) {
	r := fixtureResults(t)
	topo := r.Dataset.Topology
	traces := r.Sim.DayInto(mobsim.NewDayBuffer(), 30)
	for i := 0; i < 50; i++ {
		tr := &traces[i]
		all := new(VisitMerger).AllBinMetrics(tr, topo, DefaultTopN)
		for b := 0; b < timegrid.BinsPerDay; b++ {
			single := BinMetrics(tr, topo, b, DefaultTopN)
			if math.Abs(all[b].Entropy-single.Entropy) > 1e-12 ||
				math.Abs(all[b].Gyration-single.Gyration) > 1e-12 ||
				all[b].Towers != single.Towers {
				t.Fatalf("user %d bin %d: batch %+v vs single %+v", tr.User, b, all[b], single)
			}
		}
	}
}

func TestBinAnalyzerDiurnalStructure(t *testing.T) {
	r := fixtureResults(t)
	ba := NewBinAnalyzer(r.Dataset.Pop, DefaultTopN)
	// A baseline week-9 weekday and a lockdown week-14 weekday.
	baseDay := timegrid.SimDay(timegrid.StudyDayOffset + 2)
	lockDay := timegrid.SimDay(timegrid.StudyDayOffset + 37)
	ba.ConsumeDay(baseDay, r.Sim.DayInto(mobsim.NewDayBuffer(), baseDay))
	ba.ConsumeDay(lockDay, r.Sim.DayInto(mobsim.NewDayBuffer(), lockDay))
	// February days ignored.
	ba.ConsumeDay(3, r.Sim.DayInto(mobsim.NewDayBuffer(), 3))

	baseSD, _ := baseDay.ToStudyDay()
	lockSD, _ := lockDay.ToStudyDay()

	// The 16:00-20:00 bin mixes workplace and home dwell, so it carries
	// the commute distance at baseline and collapses under lockdown;
	// the 00:00-04:00 bin is home-only at both times.
	day := ba.BinSeries(4, MetricGyration)
	night := ba.BinSeries(0, MetricGyration)
	if day.Values[baseSD] <= night.Values[baseSD] {
		t.Errorf("baseline evening-commute gyration %v should exceed night %v",
			day.Values[baseSD], night.Values[baseSD])
	}
	dayDrop := (day.Values[lockSD] - day.Values[baseSD]) / day.Values[baseSD]
	if dayDrop > -0.3 {
		t.Errorf("evening-commute bin gyration drop = %v, want a collapse", dayDrop)
	}
	// Bin labels flow into series labels.
	if day.Label != "16:00-20:00" {
		t.Errorf("bin series label = %q", day.Label)
	}
	// The ignored February day must not contaminate study-day zero.
	if got := ba.BinSeries(2, MetricEntropy).Values[0]; got != 0 {
		t.Errorf("study day 0 populated from a February trace: %v", got)
	}
}

func TestBandAnalyzerPercentilesOrdered(t *testing.T) {
	r := fixtureResults(t)
	ba := NewBandAnalyzer(r.Dataset.Pop, DefaultTopN)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 1)
	ba.ConsumeDay(day, r.Sim.DayInto(mobsim.NewDayBuffer(), day))

	sd, _ := day.ToStudyDay()
	band := ba.Band(MetricGyration)
	p := []float64{band.P10[sd], band.P25[sd], band.P50[sd], band.P75[sd], band.P90[sd]}
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1]-1e-9 {
			t.Fatalf("percentiles not ordered: %v", p)
		}
	}
	if band.P50[sd] <= 0 {
		t.Error("median gyration should be positive on a weekday")
	}
	// Entropy band behaves too.
	eband := ba.Band(MetricEntropy)
	if eband.P90[sd] < eband.P10[sd] {
		t.Error("entropy band inverted")
	}
	_ = stats.Band{} // keep the stats import for the bridge type
}
