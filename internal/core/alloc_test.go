package core

import (
	"math"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// TestVisitMergerSteadyStateAllocs pins the analyzer-side guarantee: a
// warm VisitMerger runs the whole per-user-day §2.3 pipeline — merge,
// top-N, entropy, gyration, and the six per-bin variants — without heap
// allocation. The pre-refactor helpers allocated a map, a sample slice
// and a sort closure per user-day (plus two slices inside Gyration):
// five-plus allocations per user, per analyzer, per day.
func TestVisitMergerSteadyStateAllocs(t *testing.T) {
	s := fixtureResults(t)
	topo := s.Dataset.Topology
	traces := s.Sim.DayInto(mobsim.NewDayBuffer(), timegrid.SimDay(timegrid.StudyDayOffset+30))

	var mg VisitMerger
	for i := range traces {
		mg.DayMetrics(&traces[i], topo, DefaultTopN) // warm
		mg.AllBinMetrics(&traces[i], topo, DefaultTopN)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(traces), func() {
		tr := &traces[i%len(traces)]
		mg.DayMetrics(tr, topo, DefaultTopN)
		mg.AllBinMetrics(tr, topo, DefaultTopN)
		i++
	})
	if allocs > 0 {
		t.Errorf("VisitMerger pipeline allocates %.1f times per user-day in steady state, want 0", allocs)
	}
}

// TestVisitMergerMatchesHelpers asserts a merger kept warm across a full
// simulated day is bit-identical to a fresh merger on every user.
func TestVisitMergerMatchesHelpers(t *testing.T) {
	s := fixtureResults(t)
	topo := s.Dataset.Topology
	traces := s.Sim.DayInto(mobsim.NewDayBuffer(), timegrid.SimDay(timegrid.StudyDayOffset+12))

	var mg VisitMerger
	for i := range traces {
		tr := &traces[i]
		if got, want := mg.DayMetrics(tr, topo, DefaultTopN), new(VisitMerger).DayMetrics(tr, topo, DefaultTopN); got != want {
			t.Fatalf("user %d: warm %+v vs fresh %+v", tr.User, got, want)
		}
		if got, want := mg.AllBinMetrics(tr, topo, DefaultTopN), new(VisitMerger).AllBinMetrics(tr, topo, DefaultTopN); got != want {
			t.Fatalf("user %d bins: warm %+v vs fresh %+v", tr.User, got, want)
		}
	}
}

// TestHomeDetectorSteadyStateAllocs checks the night-scratch reuse: a
// detector that has already seen a night from every user consumes
// further nights without per-call allocation (every user's tallies
// already sit in the arena, so folding a night only updates them).
func TestHomeDetectorSteadyStateAllocs(t *testing.T) {
	s := fixtureResults(t)
	hd := NewHomeDetector(s.Dataset.Topology)
	days := []timegrid.SimDay{1, 2}
	traces := make([][]mobsim.DayTrace, len(days))
	for i, day := range days {
		traces[i] = s.Sim.DayInto(mobsim.NewDayBuffer(), day)
		hd.ConsumeDay(day, traces[i]) // warm: per-user state now exists
	}
	i := 0
	allocs := testing.AllocsPerRun(4, func() {
		hd.ConsumeDay(days[i%len(days)], traces[i%len(days)])
		i++
	})
	if allocs > 0 {
		t.Errorf("HomeDetector.ConsumeDay allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// engineDays runs the fixture population through a fresh KPI engine on
// the given study days and returns one []traffic.CellDay per day.
func engineDays(t *testing.T, studyDays ...int) ([]timegrid.SimDay, [][]traffic.CellDay) {
	t.Helper()
	s := fixtureResults(t)
	engine := traffic.NewEngine(s.Dataset.Pop, pandemic.Default(), traffic.DefaultParams(), 1)
	days := make([]timegrid.SimDay, len(studyDays))
	cells := make([][]traffic.CellDay, len(studyDays))
	for i, sd := range studyDays {
		days[i] = timegrid.SimDay(timegrid.StudyDayOffset + sd)
		cells[i] = engine.DayAppend(nil, days[i], s.Sim.DayInto(mobsim.NewDayBuffer(), days[i]))
	}
	return days, cells
}

// TestKPIAnalyzerSteadyStateAllocs pins the in-place quantile fold: a
// warm ConsumeDay buckets one engine day's records and takes every
// national, county, cluster and district quantile without allocating.
func TestKPIAnalyzerSteadyStateAllocs(t *testing.T) {
	s := fixtureResults(t)
	days, cells := engineDays(t, 30, 31)
	k := NewKPIAnalyzer(s.Dataset.Topology)
	i := 0
	allocs := testing.AllocsPerRun(8, func() {
		k.ConsumeDay(days[i%len(days)], cells[i%len(days)])
		i++
	})
	if allocs > 0 {
		t.Errorf("KPIAnalyzer.ConsumeDay allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// TestKPIAnalyzerColdConsumeAllocs pins the pre-sized bucket arena: the
// very first ConsumeDay of a fresh analyzer, and of a fork, already
// reads 0 allocations — no bucket is grown on an engine day.
func TestKPIAnalyzerColdConsumeAllocs(t *testing.T) {
	s := fixtureResults(t)
	days, cells := engineDays(t, 30)
	const runs = 4
	for _, tc := range []struct {
		name string
		make func() *KPIAnalyzer
	}{
		{"NewKPIAnalyzer", func() *KPIAnalyzer { return NewKPIAnalyzer(s.Dataset.Topology) }},
		{"Fork", func() *KPIAnalyzer { return s.KPI.Fork() }},
	} {
		// AllocsPerRun makes one warm-up call before the runs it
		// measures: give every call its own never-used analyzer.
		ks := make([]*KPIAnalyzer, runs+1)
		for i := range ks {
			ks[i] = tc.make()
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			ks[i].ConsumeDay(days[0], cells[0])
			i++
		})
		if allocs > 0 {
			t.Errorf("first ConsumeDay after %s allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// refKPIFold is the reference KPI fold: fresh buckets every day,
// medians through the copying stats.Median.
type refKPIFold struct {
	national                        seriesGrid
	byCounty, byCluster, byDistrict []seriesGrid
}

func newRefKPIFold(k *KPIAnalyzer) *refKPIFold {
	return &refKPIFold{
		byCounty:   make([]seriesGrid, len(k.byCounty)),
		byCluster:  make([]seriesGrid, len(k.byCluster)),
		byDistrict: make([]seriesGrid, len(k.byDistrict)),
	}
}

func (r *refKPIFold) consumeDay(k *KPIAnalyzer, day timegrid.SimDay, cells []traffic.CellDay) {
	sd, ok := day.ToStudyDay()
	if !ok {
		return
	}
	var nat [traffic.NumMetrics][]float64
	cnty := make([][traffic.NumMetrics][]float64, len(r.byCounty))
	clst := make([][traffic.NumMetrics][]float64, len(r.byCluster))
	dist := make([][traffic.NumMetrics][]float64, len(r.byDistrict))
	for i := range cells {
		c := &cells[i]
		for m, v := range c.Values {
			nat[m] = append(nat[m], v)
			cnty[k.cellCounty[c.Cell]][m] = append(cnty[k.cellCounty[c.Cell]][m], v)
			clst[k.cellCluster[c.Cell]][m] = append(clst[k.cellCluster[c.Cell]][m], v)
			dist[k.cellDistrict[c.Cell]][m] = append(dist[k.cellDistrict[c.Cell]][m], v)
		}
	}
	for m := range nat {
		if len(nat[m]) > 0 {
			r.national.v[m][sd] = stats.Median(nat[m])
		}
	}
	store := func(buckets [][traffic.NumMetrics][]float64, grids []seriesGrid) {
		for g := range buckets {
			for m := range buckets[g] {
				if len(buckets[g][m]) > 0 {
					grids[g].v[m][sd] = stats.Median(buckets[g][m])
				}
			}
		}
	}
	store(cnty, r.byCounty)
	store(clst, r.byCluster)
	store(dist, r.byDistrict)
}

// sameGrid reports the first (metric, day) where two grids differ in
// any bit, NaN payloads and signed zeros included.
func sameGrid(a, b *seriesGrid) (m, d int, ok bool) {
	for m := range a.v {
		for d := range a.v[m] {
			if math.Float64bits(a.v[m][d]) != math.Float64bits(b.v[m][d]) {
				return m, d, false
			}
		}
	}
	return 0, 0, true
}

// TestKPIAnalyzerMatchesCopyingQuantiles asserts the in-place fold is
// bit-identical to the copying reference on several engine days, on a
// synthetic tie-heavy day containing NaN, and on a day carrying two
// records per cell (more than the pre-sized buckets hold).
func TestKPIAnalyzerMatchesCopyingQuantiles(t *testing.T) {
	s := fixtureResults(t)
	topo := s.Dataset.Topology
	days, cells := engineDays(t, 0, 12, 30, 45, 76)

	// Synthetic days: tie-heavy values from a small alphabet with NaN
	// mixed in, on study days the engine days above leave free.
	state := uint64(9)
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
	synth := func(perCell int) []traffic.CellDay {
		var out []traffic.CellDay
		for _, id := range topo.Cells4G() {
			for r := 0; r < perCell; r++ {
				cd := traffic.CellDay{Cell: id}
				for m := range cd.Values {
					if x := next() % 13; x == 0 {
						cd.Values[m] = math.NaN()
					} else {
						cd.Values[m] = float64(x % 3)
					}
				}
				out = append(out, cd)
			}
		}
		return out
	}
	days = append(days, timegrid.SimDay(timegrid.StudyDayOffset+5), timegrid.SimDay(timegrid.StudyDayOffset+6))
	cells = append(cells, synth(1), synth(2))

	k := NewKPIAnalyzer(topo)
	ref := newRefKPIFold(k)
	for i, day := range days {
		k.ConsumeDay(day, cells[i])
		ref.consumeDay(k, day, cells[i])
	}
	check := func(name string, got, want []seriesGrid) {
		t.Helper()
		for g := range got {
			if m, d, ok := sameGrid(&got[g], &want[g]); !ok {
				t.Errorf("%s group %d metric %d study day %d: in-place %v, copying %v",
					name, g, m, d, got[g].v[m][d], want[g].v[m][d])
			}
		}
	}
	check("national", []seriesGrid{k.national}, []seriesGrid{ref.national})
	check("county", k.byCounty, ref.byCounty)
	check("cluster", k.byCluster, ref.byCluster)
	check("district", k.byDistrict, ref.byDistrict)
}
