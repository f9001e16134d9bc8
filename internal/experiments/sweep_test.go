package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/timegrid"
)

// sweepConfig is a tiny mobility-only config for sweep tests.
func sweepConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetUsers = 600
	cfg.SkipKPI = true
	return cfg
}

func loadScenario(t *testing.T, name string) *SweepScenario {
	t.Helper()
	s, err := scenario.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return &SweepScenario{Name: name, Scenario: s}
}

func TestSweepBuildsWorldExactlyOnce(t *testing.T) {
	cfg := sweepConfig()
	scens := []SweepScenario{
		*loadScenario(t, scenario.DefaultCovid),
		*loadScenario(t, scenario.NoPandemic),
		*loadScenario(t, scenario.EarlyLockdown),
	}
	before := WorldBuildCount()
	w := NewWorld(cfg)
	runs := mustSweep(t, w, cfg, scens, SweepOptions{Parallel: 1})
	if got := WorldBuildCount() - before; got != 1 {
		t.Fatalf("3-scenario sweep built %d worlds, want exactly 1", got)
	}
	if len(runs) != 3 {
		t.Fatalf("got %d runs", len(runs))
	}
	for _, run := range runs {
		if run.Results.Dataset.World != w {
			t.Fatalf("run %s does not share the sweep's world", run.Name)
		}
		if run.Results.Dataset.Pop != w.Pop {
			t.Fatalf("run %s re-synthesized the population", run.Name)
		}
		if len(run.Headlines) == 0 {
			t.Fatalf("run %s has no headlines", run.Name)
		}
		if len(run.Results.Homes) == 0 {
			t.Fatalf("run %s has no detected homes", run.Name)
		}
	}

	// The comparison table has one column per scenario and separates
	// them: the COVID gyration trough must be far below the null's.
	table := SweepTable(runs)
	if len(table.ColNames) != 3 || len(table.Rows) == 0 {
		t.Fatalf("sweep table shape: cols %v, %d rows", table.ColNames, len(table.Rows))
	}
	row, ok := table.Row("gyration trough Δ%")
	if !ok {
		t.Fatal("gyration trough row missing")
	}
	covid, null := row.Values[0], row.Values[1]
	if covid > -40 {
		t.Errorf("covid trough = %v", covid)
	}
	if null < -15 {
		t.Errorf("null trough = %v", null)
	}
}

// TestDefaultCovidSpecBitIdenticalToDefaultPath is the acceptance gate
// of the scenario subsystem: running the pipeline with the default-covid
// spec loaded from its JSON form must reproduce, bit for bit, the
// results of the legacy pandemic.Default() path.
func TestDefaultCovidSpecBitIdenticalToDefaultPath(t *testing.T) {
	cfg := sweepConfig()
	want := RunStandard(cfg) // cfg.Scenario == nil → pandemic.Default()

	sp, ok := scenario.Get(scenario.DefaultCovid)
	if !ok {
		t.Fatal("default-covid missing")
	}
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := parsed.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = scen
	got := RunStandard(cfg)

	for _, m := range []core.MobilityMetric{core.MetricGyration, core.MetricEntropy} {
		a := want.Mobility.NationalSeries(m)
		b := got.Mobility.NationalSeries(m)
		for d := 0; d < timegrid.StudyDays; d++ {
			if a.Values[d] != b.Values[d] {
				t.Fatalf("%v differs at day %d: %v vs %v", m, d, a.Values[d], b.Values[d])
			}
		}
	}
	if len(want.Homes) != len(got.Homes) {
		t.Fatalf("home detection differs: %d vs %d", len(want.Homes), len(got.Homes))
	}
	for uid, h := range want.Homes {
		if got.Homes[uid] != h {
			t.Fatalf("home of user %d differs", uid)
		}
	}
	as := want.Matrix.HomePresenceSeries()
	bs := got.Matrix.HomePresenceSeries()
	for d := range as.Values {
		if as.Values[d] != bs.Values[d] {
			t.Fatalf("matrix presence differs at day %d", d)
		}
	}
}

// TestWorldHomesScenarioInvariant backs the sweep runner's shared
// February pass: homes detected once on the world (under the default
// scenario) must be identical to a full per-scenario run's — February
// precedes the study window, so no scenario factor can touch it.
func TestWorldHomesScenarioInvariant(t *testing.T) {
	cfg := sweepConfig()
	w := NewWorld(cfg)
	homes := w.Homes()
	if len(homes) == 0 {
		t.Fatal("no homes detected on the world")
	}
	nullCfg := cfg
	nullCfg.Scenario = loadScenario(t, scenario.NoPandemic).Scenario
	r := RunStandard(nullCfg)
	if len(r.Homes) != len(homes) {
		t.Fatalf("home counts differ: world %d vs null run %d", len(homes), len(r.Homes))
	}
	for uid, h := range homes {
		if r.Homes[uid] != h {
			t.Fatalf("home of user %d differs between world cache and null-scenario run", uid)
		}
	}
}

func TestInstantiateNormalizesToWorld(t *testing.T) {
	cfg := sweepConfig()
	w := NewWorld(cfg)
	other := cfg
	other.Seed = cfg.Seed + 99
	other.TargetUsers = 5
	d := w.Instantiate(other)
	if d.Config.Seed != w.Seed || d.Config.TargetUsers != w.TargetUsers {
		t.Fatalf("Instantiate kept mismatched world fields: %+v", d.Config)
	}
	if d.Scenario == nil || d.Sim == nil {
		t.Fatal("incomplete stack")
	}
	if d.Engine != nil {
		t.Fatal("SkipKPI ignored")
	}
}
