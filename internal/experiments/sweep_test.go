package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/scenario"
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
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown)
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
	row := mustRow(t, table, "gyration trough Δ%")
	covid, null := row.Values[0], row.Values[1]
	if covid > -40 {
		t.Errorf("covid trough = %v", covid)
	}
	if null < -15 {
		t.Errorf("null trough = %v", null)
	}
}

// TestDefaultCovidSpecBitIdenticalToDefaultPath is the acceptance gate
// of the scenario subsystem: a one-scenario sweep of the default-covid
// spec loaded from its JSON form must reproduce, bit for bit, the
// one-worker RunStreamingOn reference of the legacy pandemic.Default()
// path, which reference also serves for the spec. It also pins the two executors to
// each other: the sweep's serial study loop (runStudy) against the
// streaming engine.
func TestDefaultCovidSpecBitIdenticalToDefaultPath(t *testing.T) {
	cfg := sweepConfig()
	want := reference(t, cfg, defaultScenario) // nil Scenario → pandemic.Default()

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
	runs := mustSweep(t, NewWorld(cfg), cfg, []SweepScenario{{Name: scenario.DefaultCovid, Scenario: scen}}, SweepOptions{Parallel: 1})
	assertResultsEqual(t, want, runs[0].Results)
}

// TestWorldHomesScenarioInvariant backs the sweep runner's shared
// February pass: homes detected once on the world (under the default
// scenario) must be identical to the no-pandemic reference run's —
// February precedes the study window, so no scenario factor can touch
// it.
func TestWorldHomesScenarioInvariant(t *testing.T) {
	cfg := sweepConfig()
	w := NewWorld(cfg)
	homes := w.Homes(nil)
	if len(homes) == 0 {
		t.Fatal("no homes detected on the world")
	}
	r := reference(t, cfg, *loadScenario(t, scenario.NoPandemic))
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
