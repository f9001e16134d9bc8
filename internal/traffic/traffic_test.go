package traffic

import (
	"math"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

var (
	fixOnce sync.Once
	fixPop  *popsim.Population
	fixSim  *mobsim.Simulator
	fixEng  *Engine
)

func fixture(t *testing.T) (*popsim.Population, *mobsim.Simulator, *Engine) {
	t.Helper()
	fixOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		fixPop = popsim.Synthesize(m, topo, popsim.Config{
			Seed: 1, TargetUsers: 2500,
		})
		fixSim = mobsim.New(fixPop, pandemic.Default(), 1)
		fixEng = NewEngine(fixPop, pandemic.Default(), DefaultParams(), 1)
	})
	return fixPop, fixSim, fixEng
}

func TestMetricStringsAndSets(t *testing.T) {
	for _, m := range Metrics() {
		if m.String() == "" {
			t.Errorf("metric %d has no name", m)
		}
	}
	if len(Metrics()) != NumMetrics {
		t.Error("Metrics() incomplete")
	}
	if len(DataMetrics()) != 6 || len(VoiceMetrics()) != 4 {
		t.Error("metric subsets wrong")
	}
	if DLVolume.String() != "Downlink Data Volume" {
		t.Errorf("DLVolume = %q", DLVolume.String())
	}
}

func TestEngineDayBasics(t *testing.T) {
	pop, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 2) // Wed week 9
	cells := eng.DayAppend(nil, day, sim.DayInto(mobsim.NewDayBuffer(), day))
	if len(cells) == 0 {
		t.Fatal("no cell records")
	}
	if len(cells) > len(pop.Topology().Cells4G()) {
		t.Fatal("more records than 4G cells")
	}
	seen := map[radio.CellID]bool{}
	for i := range cells {
		c := &cells[i]
		if seen[c.Cell] {
			t.Fatalf("cell %d reported twice", c.Cell)
		}
		seen[c.Cell] = true
		if pop.Topology().Cells[c.Cell].RAT != radio.RAT4G {
			t.Fatalf("record for non-4G cell")
		}
		for m := 0; m < NumMetrics; m++ {
			v := c.Values[m]
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("cell %d metric %v = %v", c.Cell, Metric(m), v)
			}
		}
		if c.Values[RadioLoad] > 1 {
			t.Fatalf("radio load %v > 1", c.Values[RadioLoad])
		}
		// UL stays below DL per cell (order-of-magnitude asymmetry).
		if c.Values[ULVolume] > c.Values[DLVolume] {
			t.Errorf("cell %d UL %v > DL %v", c.Cell, c.Values[ULVolume], c.Values[DLVolume])
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	_, sim, eng := fixture(t)
	day := timegrid.SimDay(50)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	a := eng.DayAppend(nil, day, traces)
	b := eng.DayAppend(nil, day, traces)
	if len(a) != len(b) {
		t.Fatal("record counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell record %d differs", i)
		}
	}
}

func TestVolumeConservationAcrossSectors(t *testing.T) {
	// The per-cell split must conserve the tower totals: summing DL over
	// a tower's cells on two different days with identical presence
	// would be equal; here we check the weaker invariant that the split
	// weights normalize (total volume is insensitive to cell count).
	pop, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 1)
	cells := eng.DayAppend(nil, day, sim.DayInto(mobsim.NewDayBuffer(), day))
	totBy := map[radio.TowerID]float64{}
	for i := range cells {
		c := &pop.Topology().Cells[cells[i].Cell]
		totBy[c.Tower] += cells[i].Values[ConnectedUsers]
	}
	// Median per-tower connected users should be plausibly positive.
	pos := 0
	for _, v := range totBy {
		if v > 0 {
			pos++
		}
	}
	if pos < len(totBy)/2 {
		t.Errorf("only %d/%d towers carry users", pos, len(totBy))
	}
}

func TestVoiceSurgeRaisesVoiceKPIs(t *testing.T) {
	_, sim, eng := fixture(t)
	base := timegrid.SimDay(timegrid.StudyDayOffset + 2)   // week 9
	surge := timegrid.SimDay(timegrid.StudyDayOffset + 23) // week 12 (Wed 18 Mar)
	sumMetric := func(day timegrid.SimDay, m Metric) float64 {
		cells := eng.DayAppend(nil, day, sim.DayInto(mobsim.NewDayBuffer(), day))
		var s float64
		for i := range cells {
			s += cells[i].Values[m]
		}
		return s
	}
	b, s := sumMetric(base, VoiceVolume), sumMetric(surge, VoiceVolume)
	if s < 1.8*b {
		t.Errorf("voice volume surge: %v vs baseline %v, want ≥1.8×", s, b)
	}
	bu, su := sumMetric(base, VoiceUsers), sumMetric(surge, VoiceUsers)
	if su < 1.8*bu {
		t.Errorf("voice users surge: %v vs %v", su, bu)
	}
}

func TestInterconnectCongestionWindow(t *testing.T) {
	_, sim, eng := fixture(t)
	meanLoss := func(day timegrid.SimDay) float64 {
		cells := eng.DayAppend(nil, day, sim.DayInto(mobsim.NewDayBuffer(), day))
		var s float64
		for i := range cells {
			s += cells[i].Values[VoiceDLLoss]
		}
		return s / float64(len(cells))
	}
	base := meanLoss(timegrid.SimDay(timegrid.StudyDayOffset + 2))
	congested := meanLoss(timegrid.SimDay(timegrid.StudyDayOffset + 17)) // week 11
	after := meanLoss(timegrid.SimDay(timegrid.StudyDayOffset + 45))     // post-upgrade
	if congested < base*1.5 {
		t.Errorf("week-11 DL loss %v vs baseline %v, want a surge", congested, base)
	}
	if after >= base {
		t.Errorf("post-upgrade loss %v should fall below baseline %v", after, base)
	}
}

func TestInterconnectCapacitySchedule(t *testing.T) {
	_, _, eng := fixture(t)
	before := eng.InterconnectCapacity(timegrid.SimDay(timegrid.StudyDayOffset + 10))
	after := eng.InterconnectCapacity(timegrid.SimDay(timegrid.StudyDayOffset + 40))
	if after <= before {
		t.Errorf("capacity before %v, after %v — upgrade missing", before, after)
	}
	feb := eng.InterconnectCapacity(5)
	if feb != before {
		t.Errorf("February capacity %v != pre-upgrade %v", feb, before)
	}
}

func TestThroughputThrottled(t *testing.T) {
	_, sim, eng := fixture(t)
	medThr := func(day timegrid.SimDay) float64 {
		cells := eng.DayAppend(nil, day, sim.DayInto(mobsim.NewDayBuffer(), day))
		var vals []float64
		for i := range cells {
			if v := cells[i].Values[DLThroughput]; v > 0 {
				vals = append(vals, v)
			}
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	base := medThr(timegrid.SimDay(timegrid.StudyDayOffset + 2))
	lock := medThr(timegrid.SimDay(timegrid.StudyDayOffset + 38))
	drop := (lock - base) / base * 100
	if drop > -4 || drop < -18 {
		t.Errorf("throughput change = %v%%, want ≈-10%%", drop)
	}
}

func TestNullScenarioIsFlat(t *testing.T) {
	m := census.BuildUK(2)
	topo := radio.Build(m, radio.DefaultConfig(), 2)
	pop := popsim.Synthesize(m, topo, popsim.Config{Seed: 2, TargetUsers: 1200})
	sim := mobsim.New(pop, pandemic.NoPandemic(), 2)
	eng := NewEngine(pop, pandemic.NoPandemic(), DefaultParams(), 2)
	sum := func(day timegrid.SimDay, metric Metric) float64 {
		cells := eng.DayAppend(nil, day, sim.DayInto(mobsim.NewDayBuffer(), day))
		var s float64
		for i := range cells {
			s += cells[i].Values[metric]
		}
		return s
	}
	// Same weekday in week 9 and week 14: without a pandemic, volumes
	// stay within ±10%.
	base := sum(timegrid.SimDay(timegrid.StudyDayOffset+2), DLVolume)
	later := sum(timegrid.SimDay(timegrid.StudyDayOffset+37), DLVolume)
	delta := math.Abs(later-base) / base
	if delta > 0.10 {
		t.Errorf("null-scenario DL drifted %v%%", delta*100)
	}
	voiceBase := sum(timegrid.SimDay(timegrid.StudyDayOffset+2), VoiceVolume)
	voiceLater := sum(timegrid.SimDay(timegrid.StudyDayOffset+37), VoiceVolume)
	if math.Abs(voiceLater-voiceBase)/voiceBase > 0.10 {
		t.Error("null-scenario voice drifted")
	}
}

func TestPeakVoiceHourShare(t *testing.T) {
	p := peakVoiceHourShare()
	if p <= 0 || p > 0.2 {
		t.Errorf("peak voice hour share = %v", p)
	}
	var sumData, sumVoice, sumEng float64
	for h := 0; h < timegrid.HoursPerDay; h++ {
		sumData += diurnalData[h]
		sumVoice += diurnalVoice[h]
		sumEng += engagement[h]
	}
	if math.Abs(sumData-1) > 0.01 {
		t.Errorf("data diurnal sums to %v", sumData)
	}
	if math.Abs(sumVoice-1) > 0.01 {
		t.Errorf("voice diurnal sums to %v", sumVoice)
	}
	if sumEng <= 0 {
		t.Error("engagement profile empty")
	}
}

func TestMedianInPlace(t *testing.T) {
	if got := medianInPlace(nil); got != 0 {
		t.Errorf("medianInPlace(nil) = %v", got)
	}
	if got := medianInPlace([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianInPlace([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestMedian24MatchesReference drives the order-statistic select against
// the sorting reference over randomized inputs, including heavy ties,
// for every staging length the reduction can produce.
func TestMedian24MatchesReference(t *testing.T) {
	src := rng.New(99)
	for n := 0; n <= timegrid.HoursPerDay; n++ {
		for trial := 0; trial < 400; trial++ {
			var xs, ref [timegrid.HoursPerDay]float64
			for i := 0; i < n; i++ {
				switch trial % 3 {
				case 0:
					xs[i] = src.Float64()
				case 1:
					xs[i] = float64(src.Intn(4)) // heavy ties
				default:
					xs[i] = float64(src.Intn(1000)) / 8
				}
			}
			ref = xs
			want := medianInPlace(ref[:n])
			if got := median24(&xs, n); got != want {
				t.Fatalf("n=%d trial=%d: median24 %v, reference %v (input %v)", n, trial, got, want, ref[:n])
			}
		}
	}
}

func TestInactiveTowersExcluded(t *testing.T) {
	m := census.BuildUK(5)
	cfg := radio.DefaultConfig()
	cfg.NewSiteFraction = 0.5 // half the estate activates mid-window
	topo := radio.Build(m, cfg, 5)
	pop := popsim.Synthesize(m, topo, popsim.Config{Seed: 5, TargetUsers: 800})
	sim := mobsim.New(pop, pandemic.Default(), 5)
	eng := NewEngine(pop, pandemic.Default(), DefaultParams(), 5)
	early := eng.DayAppend(nil, 0, sim.DayInto(mobsim.NewDayBuffer(), 0))
	late := eng.DayAppend(nil, timegrid.SimDays-1, sim.DayInto(mobsim.NewDayBuffer(), timegrid.SimDays-1))
	if len(early) >= len(late) {
		t.Errorf("cell records should grow as sites activate: %d then %d", len(early), len(late))
	}
}

// dayHourly runs the KPI model at hourly resolution: the day prologue,
// demand accumulation and the per-cell-hour reduction DayAppend takes
// its daily medians from. Records of one cell arrive consecutively,
// hours ascending.
func dayHourly(e *Engine, day timegrid.SimDay, traces []mobsim.DayTrace, emit func(*CellHour)) {
	f := e.dayFactorsFor(day)
	e.accumulate(day, &f, traces)
	e.reduce(day, &f, emit)
}

func TestDayHourlyConsistentWithDay(t *testing.T) {
	_, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 9)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)

	// Recompute the daily medians from the hourly stream and compare
	// with Day's output.
	type agg struct{ vals [NumMetrics][]float64 }
	perCell := map[radio.CellID]*agg{}
	var order []radio.CellID
	hours := 0
	dayHourly(eng, day, traces, func(ch *CellHour) {
		a := perCell[ch.Cell]
		if a == nil {
			a = &agg{}
			perCell[ch.Cell] = a
			order = append(order, ch.Cell)
		}
		if ch.Hour < 0 || ch.Hour >= timegrid.HoursPerDay {
			t.Fatalf("hour %d out of range", ch.Hour)
		}
		for m := 0; m < NumMetrics; m++ {
			if m == int(DLThroughput) && ch.Values[m] == 0 {
				continue
			}
			a.vals[m] = append(a.vals[m], ch.Values[m])
		}
		hours++
	})
	if hours == 0 {
		t.Fatal("no hourly records")
	}

	days := eng.DayAppend(nil, day, traces)
	if len(days) != len(order) {
		t.Fatalf("Day returned %d cells, hourly saw %d", len(days), len(order))
	}
	for i, cd := range days {
		if cd.Cell != order[i] {
			t.Fatalf("cell order mismatch at %d", i)
		}
		a := perCell[cd.Cell]
		for m := 0; m < NumMetrics; m++ {
			if got, want := cd.Values[m], medianInPlace(a.vals[m]); got != want {
				t.Fatalf("cell %d metric %v: daily %v vs hourly-median %v", cd.Cell, Metric(m), got, want)
			}
		}
	}
}

func TestDayHourlyDiurnalShape(t *testing.T) {
	_, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 1)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	var byHour [timegrid.HoursPerDay]float64
	dayHourly(eng, day, traces, func(ch *CellHour) {
		byHour[ch.Hour] += ch.Values[DLVolume]
	})
	// Evening peak well above the small hours.
	night := byHour[3]
	evening := byHour[20]
	if evening < 5*night {
		t.Errorf("evening volume %v vs night %v: diurnal shape missing", evening, night)
	}
}
