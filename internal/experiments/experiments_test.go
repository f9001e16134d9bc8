package experiments

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

var (
	resOnce sync.Once
	res     *Results
	resBins *BinsAndBands
	resErr  error
)

// results runs the standard pipeline once at the default scale, with
// the bins-and-bands extension tapped into the same pass; all
// integration tests share it.
func results(t *testing.T) *Results {
	t.Helper()
	resOnce.Do(func() {
		d := NewDataset(DefaultConfig())
		resBins = ExtBinsAndBands(d)
		res, resErr = RunStreamingOn(context.Background(), d, stream.Config{}, resBins.Tap)
	})
	if resErr != nil {
		t.Fatalf("RunStreamingOn: %v", resErr)
	}
	return res
}

func TestAllFiguresPass(t *testing.T) {
	r := results(t)
	for _, f := range AllFigures(r) {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			for _, c := range f.Checks {
				if !c.Pass {
					t.Errorf("%s: got %s, want %s", c.Name, c.Got, c.Want)
				}
			}
		})
	}
}

// TestFigureIDsMatchFigures pins the list figures resolves -fig against
// to the IDs of the figures a run prints, extensions included.
func TestFigureIDsMatchFigures(t *testing.T) {
	r := results(t)
	var got []string
	for _, f := range AllFigures(r) {
		got = append(got, f.ID)
	}
	got = append(got, resBins.Figure().ID, ExtSEIR(r).ID)
	if want := FigureIDs(); !slices.Equal(got, want) {
		t.Errorf("figure IDs %v, FigureIDs() %v", got, want)
	}
}

// TestAllFiguresCheckOrderStable pins the check order: two renderings
// of one result list the same checks in the same sequence, so figures
// output is byte-stable across runs of one binary.
func TestAllFiguresCheckOrderStable(t *testing.T) {
	r := results(t)
	names := func() []string {
		var out []string
		for _, f := range AllFigures(r) {
			for _, c := range f.Checks {
				out = append(out, f.ID+"/"+c.Name)
			}
		}
		return out
	}
	if a, b := names(), names(); !reflect.DeepEqual(a, b) {
		t.Errorf("check order differs between two AllFigures calls:\n%v\n%v", a, b)
	}
}

func TestFiguresHaveData(t *testing.T) {
	r := results(t)
	for _, f := range AllFigures(r) {
		if f.ID == "" || f.Title == "" {
			t.Errorf("figure missing identity: %+v", f)
		}
		if len(f.Tables) == 0 {
			t.Errorf("figure %s has no tables", f.ID)
		}
		for _, tb := range f.Tables {
			if len(tb.Rows) == 0 {
				t.Errorf("figure %s table %q empty", f.ID, tb.Title)
			}
		}
	}
}

func TestFigurePassedHelper(t *testing.T) {
	f := &Figure{}
	f.checkRange("in range", 5, 0, 10)
	f.checkRange("out of range", 50, 0, 10)
	f.checkTrue("bool", false, "x", "y")
	if len(f.Checks) != 3 {
		t.Fatalf("%d checks recorded, want 3", len(f.Checks))
	}
	if !f.Checks[0].Pass {
		t.Error("in-range check reported failed")
	}
	if f.Checks[1].Pass {
		t.Error("out-of-range check reported passed")
	}
	if f.Checks[2].Pass {
		t.Error("checkTrue(false) reported passed")
	}
}

func TestRunStreamingOnPopulatesEverything(t *testing.T) {
	r := results(t)
	if r.Mobility == nil || r.KPI == nil || r.Matrix == nil {
		t.Fatal("missing analyzers")
	}
	if len(r.Homes) == 0 {
		t.Fatal("no homes detected")
	}
	if r.Matrix.CohortSize() == 0 {
		t.Fatal("empty Inner London cohort")
	}
	// The cohort should approximate the Inner London agent population.
	inner := r.Dataset.Model.InnerLondon()
	agents := 0
	for _, id := range r.Dataset.Pop.Native() {
		if r.Dataset.Pop.User(id).HomeCounty == inner.ID {
			agents++
		}
	}
	if c := r.Matrix.CohortSize(); c < agents*8/10 || c > agents*11/10 {
		t.Errorf("cohort %d vs %d Inner London agents", c, agents)
	}
}

// TestDeterministicAcrossRuns requires a second run of one config to
// repeat its reference run bit for bit, in every compared aggregate.
func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetUsers = 800
	cfg.SkipKPI = true
	assertResultsEqual(t, reference(t, cfg, defaultScenario), mustStreamingConfig(t, cfg, stream.Config{}))
}

func TestSeedChangesDetails(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetUsers = 800
	cfg.SkipKPI = true
	a := reference(t, cfg, defaultScenario)
	cfg.Seed++
	b := mustStreamingConfig(t, cfg, stream.Config{})
	if slices.Equal(a.Mobility.NationalSeries(core.MetricGyration).Values, b.Mobility.NationalSeries(core.MetricGyration).Values) {
		t.Error("different seeds produced identical series")
	}
}

func TestShapesHoldAtSmallerScale(t *testing.T) {
	// Scale invariance: the headline mobility shape holds with a quarter
	// of the agents (KPIs get noisy below that, so only mobility is
	// asserted here).
	cfg := DefaultConfig()
	cfg.TargetUsers = 2000
	cfg.Seed = 99
	cfg.SkipKPI = true
	r := mustStreamingConfig(t, cfg, stream.Config{})
	f := Fig3(r)
	for _, c := range f.Checks {
		if !c.Pass {
			t.Errorf("small-scale %s: got %s, want %s", c.Name, c.Got, c.Want)
		}
	}
}

func TestNoPandemicScenarioIsFlat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetUsers = 1500
	cfg.Scenario = pandemic.NoPandemic()
	cfg.SkipKPI = true
	r := mustStreamingConfig(t, cfg, stream.Config{})
	gyr := r.Mobility.NationalSeries(core.MetricGyration)
	base := stats.Mean(gyr.Values[:7])
	weekly := core.DeltaSeries(gyr, base).WeeklyMeans()
	for w, v := range weekly.Values {
		if v < -10 || v > 10 {
			t.Errorf("null scenario gyration delta week %d = %v", w+timegrid.FirstWeek, v)
		}
	}
}

func TestWeekHelpers(t *testing.T) {
	vals := make([]float64, timegrid.StudyWeeks)
	for i := range vals {
		vals[i] = float64(i)
	}
	if got := weekValue(vals, 9); got != 0 {
		t.Errorf("weekValue(w9) = %v", got)
	}
	if got := weekValue(vals, 19); got != 10 {
		t.Errorf("weekValue(w19) = %v", got)
	}
	if got := minOver(vals, 12, 15); got != 3 {
		t.Errorf("minOver = %v", got)
	}
	if got := maxOverWeeks(vals, 12, 15); got != 6 {
		t.Errorf("maxOverWeeks = %v", got)
	}
	if got := meanOver(vals, 10, 12); got != 2 {
		t.Errorf("meanOver = %v", got)
	}
	cols := weekColNames()
	if len(cols) != timegrid.StudyWeeks || cols[0] != "w9" || cols[10] != "w19" {
		t.Errorf("weekColNames = %v", cols)
	}
}

func TestFig9UsesResultsKPI(t *testing.T) {
	r := results(t)
	f := Fig9(r)
	tb := f.Tables[0]
	if len(tb.Rows) != len(traffic.VoiceMetrics()) {
		t.Errorf("Fig9 rows = %d", len(tb.Rows))
	}
	row := mustRow(t, tb, traffic.VoiceVolume.String())
	if len(row.Values) != timegrid.StudyWeeks {
		t.Errorf("voice row has %d weeks", len(row.Values))
	}
}

func TestExtensionFigures(t *testing.T) {
	r := results(t)
	bins := resBins.Figure()
	// The tapped fold must equal one over freshly simulated study days.
	ref := ExtBinsAndBands(r.Dataset)
	buf := mobsim.NewDayBuffer()
	for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.SimDays; day++ {
		ref.Tap(day, r.Dataset.Sim.DayInto(buf, day), nil)
	}
	if !reflect.DeepEqual(bins.Tables, ref.Figure().Tables) {
		t.Error("tapped bins-and-bands tables differ from a fold over fresh days")
	}
	for _, f := range []*Figure{bins, ExtSEIR(r)} {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			if len(f.Checks) == 0 {
				t.Fatal("extension has no checks")
			}
			for _, c := range f.Checks {
				if !c.Pass {
					t.Errorf("%s: got %s, want %s", c.Name, c.Got, c.Want)
				}
			}
		})
	}
}

func TestHeadlinesAndComparison(t *testing.T) {
	r := results(t)
	hs := Headlines(r)
	if len(hs) < 8 {
		t.Fatalf("only %d headlines", len(hs))
	}
	names := map[string]bool{}
	for _, h := range hs {
		if names[h.Name] {
			t.Errorf("duplicate headline %q", h.Name)
		}
		names[h.Name] = true
	}
	if !names["gyration trough Δ%"] || !names["voice volume peak Δ%"] {
		t.Error("expected headlines missing")
	}

	// Compare against the no-pandemic null: the diff column must show a
	// dramatic gap on the gyration trough.
	cfg := DefaultConfig()
	cfg.TargetUsers = 1200
	cfg.Scenario = pandemic.NoPandemic()
	cfg.SkipKPI = true
	null := mustStreamingConfig(t, cfg, stream.Config{})
	nullHs := map[string]float64{}
	for _, h := range Headlines(null) {
		nullHs[h.Name] = h.Value
	}
	nullV, ok := nullHs["gyration trough Δ%"]
	if !ok {
		t.Fatal("gyration trough headline missing from the null run")
	}
	for _, h := range hs {
		if h.Name == "gyration trough Δ%" && h.Value > -40 {
			t.Errorf("covid trough = %v", h.Value)
		}
	}
	if nullV < -15 {
		t.Errorf("null trough = %v", nullV)
	}
	// KPI headlines are absent for the KPI-less null run.
	if _, ok := nullHs["DL volume trough Δ%"]; ok {
		t.Error("KPI headline should be absent when a run lacks KPIs")
	}
}
