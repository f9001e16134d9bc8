package core

import (
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// testStack is a small end-to-end pipeline shared by the package's
// integration tests (the experiments package cannot be imported here —
// it depends on core).
type testStack struct {
	Dataset struct {
		Model    *census.Model
		Topology *radio.Topology
		Pop      *popsim.Population
	}
	Sim      *mobsim.Simulator
	Mobility *MobilityAnalyzer
	KPI      *KPIAnalyzer
	Homes    map[popsim.UserID]Home
	Matrix   *MobilityMatrix
}

var (
	stackOnce sync.Once
	stack     *testStack
)

func fixtureResults(t *testing.T) *testStack {
	t.Helper()
	stackOnce.Do(func() {
		s := &testStack{}
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		scen := pandemic.Default()
		pop := popsim.Synthesize(m, topo, popsim.Config{Seed: 1, TargetUsers: 3000})
		s.Dataset.Model, s.Dataset.Topology, s.Dataset.Pop = m, topo, pop
		s.Sim = mobsim.New(pop, scen, 1)

		// February pass: home detection. Every analyzer consumes a day
		// before the next is simulated, so one buffer serves the run.
		buf := mobsim.NewDayBuffer()
		hd := NewHomeDetector(topo)
		for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
			hd.ConsumeDay(day, s.Sim.DayInto(buf, day))
		}
		s.Homes = hd.Detect()

		inner := m.InnerLondon()
		var cohort []popsim.UserID
		for uid, h := range s.Homes {
			if h.County == inner.ID {
				cohort = append(cohort, uid)
			}
		}

		s.Mobility = NewMobilityAnalyzer(pop, DefaultTopN)
		s.Matrix = NewMobilityMatrix(pop, inner.ID, cohort, DefaultTopN)
		s.KPI = NewKPIAnalyzer(topo)
		engine := traffic.NewEngine(pop, scen, traffic.DefaultParams(), 1)
		var cells []traffic.CellDay
		for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.SimDays; day++ {
			traces := s.Sim.DayInto(buf, day)
			s.Mobility.ConsumeDay(day, traces)
			s.Matrix.ConsumeDay(day, traces)
			cells = engine.DayAppend(cells[:0], day, traces)
			s.KPI.ConsumeDay(day, cells)
		}
		stack = s
	})
	return stack
}

func TestPipelineNationalMobilityShape(t *testing.T) {
	r := fixtureResults(t)
	gyr := r.Mobility.NationalSeries(MetricGyration)
	base := r.Mobility.NationalWeek9Baseline(MetricGyration)
	if base <= 0 {
		t.Fatal("zero baseline gyration")
	}
	delta := DeltaSeries(gyr, base).WeeklyMeans()
	w13 := delta.Values[13-timegrid.FirstWeek]
	if w13 > -35 || w13 < -70 {
		t.Errorf("week-13 gyration delta = %v, want a ~50%% collapse", w13)
	}
	// Entropy falls less.
	ent := r.Mobility.NationalSeries(MetricEntropy)
	entDelta := DeltaSeries(ent, r.Mobility.NationalWeek9Baseline(MetricEntropy)).WeeklyMeans()
	if entDelta.Values[13-timegrid.FirstWeek] < w13 {
		t.Errorf("entropy fell more than gyration: %v vs %v",
			entDelta.Values[13-timegrid.FirstWeek], w13)
	}
}

func TestPipelineCountySeriesCoverAllCounties(t *testing.T) {
	r := fixtureResults(t)
	for ci := range r.Dataset.Model.Counties {
		c := &r.Dataset.Model.Counties[ci]
		s := r.Mobility.CountySeries(c, MetricGyration)
		if s.Label != c.Name {
			t.Errorf("series label %q for county %q", s.Label, c.Name)
		}
		nonzero := 0
		for _, v := range s.Values {
			if v > 0 {
				nonzero++
			}
		}
		if nonzero < timegrid.StudyDays {
			t.Errorf("county %s has %d/%d populated days", c.Name, nonzero, timegrid.StudyDays)
		}
	}
}

func TestPipelineClusterSeries(t *testing.T) {
	r := fixtureResults(t)
	for _, cl := range census.Clusters() {
		s := r.Mobility.ClusterSeries(cl, MetricEntropy)
		if s.Values[0] <= 0 {
			t.Errorf("cluster %v entropy day-0 = %v", cl, s.Values[0])
		}
	}
}

func TestHomeDetectionAccuracy(t *testing.T) {
	r := fixtureResults(t)
	pop := r.Dataset.Pop
	// The paper detects homes for ~16M of ~22M users (73%): the
	// night-off observability model leaves a comparable fraction below
	// the 14-night threshold.
	frac0 := float64(len(r.Homes)) / float64(len(pop.Native()))
	if frac0 < 0.70 || frac0 > 0.97 {
		t.Fatalf("homes detected for %d/%d users (%.2f)", len(r.Homes), len(pop.Native()), frac0)
	}
	correct := 0
	for uid, h := range r.Homes {
		if pop.User(uid).HomeDistrict == h.District {
			correct++
		}
	}
	frac := float64(correct) / float64(len(r.Homes))
	if frac < 0.95 {
		t.Errorf("home detection district accuracy = %v", frac)
	}
}

func TestHomeDetectionMinNights(t *testing.T) {
	// With an impossible nights threshold nothing is detected.
	r := fixtureResults(t)
	hd := NewHomeDetector(r.Dataset.Topology)
	hd.MinNights = 99
	hd.ConsumeDay(0, r.Sim.DayInto(mobsim.NewDayBuffer(), 0))
	if got := len(hd.Detect()); got != 0 {
		t.Errorf("detected %d homes from one night with MinNights=99", got)
	}
	// A fortnight of nights meets the default threshold.
	hd2 := NewHomeDetector(r.Dataset.Topology)
	for day := timegrid.SimDay(0); day < 14; day++ {
		hd2.ConsumeDay(day, r.Sim.DayInto(mobsim.NewDayBuffer(), day))
	}
	if got := len(hd2.Detect()); got == 0 {
		t.Error("14 nights should be enough for detection")
	}
	// Days outside February are ignored.
	hd3 := NewHomeDetector(r.Dataset.Topology)
	for day := timegrid.SimDay(timegrid.FebruaryDays); day < timegrid.FebruaryDays+20; day++ {
		hd3.ConsumeDay(day, r.Sim.DayInto(mobsim.NewDayBuffer(), day))
	}
	if got := len(hd3.Detect()); got != 0 {
		t.Errorf("non-February days produced %d homes", got)
	}
}

func TestCensusValidation(t *testing.T) {
	r := fixtureResults(t)
	scale := float64(len(r.Dataset.Pop.Native())) / float64(r.Dataset.Model.TotalPopulation())
	v, err := ValidateAgainstCensus(r.Homes, r.Dataset.Model, scale)
	if err != nil {
		t.Fatal(err)
	}
	if v.Fit.R2 < 0.85 {
		t.Errorf("census validation r² = %v", v.Fit.R2)
	}
	if v.Fit.Slope <= 0 {
		t.Errorf("census validation slope = %v", v.Fit.Slope)
	}
	if v.Areas != len(r.Dataset.Model.Districts) {
		t.Errorf("validation areas = %d", v.Areas)
	}
}

func TestMobilityMatrixShape(t *testing.T) {
	r := fixtureResults(t)
	m := r.Matrix
	if m.CohortSize() == 0 {
		t.Fatal("empty cohort")
	}
	home := m.HomePresenceSeries()
	cohort := float64(m.CohortSize())
	for d := 0; d < timegrid.StudyDays; d++ {
		if home.Values[d] < 0 || home.Values[d] > cohort {
			t.Fatalf("day %d: home presence %v outside [0, cohort %v]", d, home.Values[d], cohort)
		}
	}
	// Relocation signal: members seen only away from home (cohort minus
	// home presence) grow markedly after lockdown.
	baseAway := cohort - home.Values[2]
	lockAway := cohort - home.Values[40]
	if lockAway < baseAway+cohort/25 {
		t.Errorf("away: baseline %v, lockdown %v — expected a clear rise", baseAway, lockAway)
	}
	// Matrix rows: home county first, then destinations.
	table := m.Matrix(10)
	if len(table.Rows) != 11 {
		t.Fatalf("matrix rows = %d", len(table.Rows))
	}
	if table.Rows[0].Label != "Inner London" {
		t.Errorf("first row = %s", table.Rows[0].Label)
	}
	if len(table.ColNames) != timegrid.StudyDays {
		t.Errorf("matrix columns = %d", len(table.ColNames))
	}
	dests := m.TopDestinations(10)
	seen := map[string]bool{}
	for _, c := range dests {
		if c.Name == "Inner London" {
			t.Error("home county listed as destination")
		}
		if seen[c.Name] {
			t.Error("duplicate destination")
		}
		seen[c.Name] = true
	}
}

func TestKPIAnalyzerSeries(t *testing.T) {
	r := fixtureResults(t)
	kpi := r.KPI
	nat := kpi.NationalSeries(traffic.DLVolume)
	if nat.Len() != timegrid.StudyDays {
		t.Fatalf("national series length = %d", nat.Len())
	}
	for d, v := range nat.Values {
		if v <= 0 {
			t.Fatalf("national DL volume day %d = %v", d, v)
		}
	}
	// Weekly delta pipeline: week 9 is ~0 by construction.
	wd := WeeklyDeltaSeries(nat)
	if wd.Len() != timegrid.StudyWeeks {
		t.Fatalf("weekly series length = %d", wd.Len())
	}
	if wd.Values[0] > 8 || wd.Values[0] < -8 {
		t.Errorf("week-9 delta = %v, want ≈0", wd.Values[0])
	}
	// DL volume declines during lockdown at every aggregation level.
	if wd.Values[13-timegrid.FirstWeek] > -5 {
		t.Errorf("week-13 national DL delta = %v", wd.Values[13-timegrid.FirstWeek])
	}
	inner := r.Dataset.Model.InnerLondon()
	iw := WeeklyDeltaSeries(kpi.CountySeries(inner, traffic.DLVolume))
	if iw.Values[14-timegrid.FirstWeek] > wd.Values[14-timegrid.FirstWeek] {
		t.Error("Inner London should fall at least as hard as the UK")
	}
}

func TestKPIVoiceShape(t *testing.T) {
	r := fixtureResults(t)
	vw := WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.VoiceVolume))
	w12 := vw.Values[12-timegrid.FirstWeek]
	if w12 < 80 || w12 > 200 {
		t.Errorf("week-12 voice delta = %v, want the +140%% spike", w12)
	}
	loss := WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.VoiceDLLoss))
	if loss.Values[11-timegrid.FirstWeek] < 50 {
		t.Errorf("week-11 DL loss delta = %v, want a surge", loss.Values[11-timegrid.FirstWeek])
	}
	if loss.Values[15-timegrid.FirstWeek] > 0 {
		t.Errorf("week-15 DL loss delta = %v, want below baseline after the upgrade",
			loss.Values[15-timegrid.FirstWeek])
	}
}

func TestUsersVolumeCorrelationBounds(t *testing.T) {
	r := fixtureResults(t)
	for _, cl := range census.Clusters() {
		rho := r.KPI.UsersVolumeCorrelation(cl)
		if rho < -1 || rho > 1 {
			t.Fatalf("correlation for %v = %v", cl, rho)
		}
	}
	if r.KPI.UsersVolumeCorrelation(census.Cosmopolitans) < 0.8 {
		t.Error("Cosmopolitan correlation should be strongly positive")
	}
}

func TestDistrictSeriesEC(t *testing.T) {
	r := fixtureResults(t)
	ec := districtByCode(t, r.Dataset.Model, "EC")
	sw := districtByCode(t, r.Dataset.Model, "SW")
	ecW := WeeklyDeltaSeries(r.KPI.DistrictSeries(ec, traffic.DLVolume))
	swW := WeeklyDeltaSeries(r.KPI.DistrictSeries(sw, traffic.DLVolume))
	wk := 15 - timegrid.FirstWeek
	if ecW.Values[wk] > swW.Values[wk]-10 {
		t.Errorf("EC (%v) should collapse far below SW (%v)", ecW.Values[wk], swW.Values[wk])
	}
}

func TestDeltaSeriesHelper(t *testing.T) {
	s := DeltaSeries(stats.Series{Label: "x", Values: []float64{100, 110, 90}}, 100)
	if s.Values[0] != 0 || s.Values[1] != 10 || s.Values[2] != -10 {
		t.Errorf("DeltaSeries = %v", s.Values)
	}
	if s.Label != "x" {
		t.Error("label lost")
	}
}

// districtByCode returns m's district with the given postcode-district
// code.
func districtByCode(t *testing.T, m *census.Model, code string) *census.District {
	t.Helper()
	for i := range m.Districts {
		if m.Districts[i].Code == code {
			return &m.Districts[i]
		}
	}
	t.Fatalf("no district %q", code)
	return nil
}
