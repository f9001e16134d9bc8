package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// -update regenerates the golden headline fixtures under testdata/.
var update = flag.Bool("update", false, "rewrite golden headline fixtures")

// goldenConfig is the committed fixture scale: small enough to run the
// whole registry in one test, large enough that every headline (KPI and
// Inner-London cohort included) has data.
func goldenConfig() Config {
	return Config{Seed: 42, TargetUsers: 500, PopPerTower: 40_000, TopN: core.DefaultTopN}
}

// goldenFixture is the serialized form of one scenario's end-to-end
// headline output.
type goldenFixture struct {
	Scenario  string     `json:"scenario"`
	Users     int        `json:"users"`
	Seed      uint64     `json:"seed"`
	Headlines []Headline `json:"headlines"`
}

var (
	regRuns    []SweepRun
	regMetrics *obs.Registry
)

// registrySweep returns the registry sweep at goldenConfig and its
// metrics, run once per test binary at Parallel 2. TestGoldenHeadlines
// and TestSharedPrefixSweepMatchesUnshared both check it against the
// committed fixtures.
func registrySweep(t *testing.T) ([]SweepRun, *obs.Registry) {
	t.Helper()
	if regRuns == nil {
		cfg := goldenConfig()
		reg := obs.New()
		runs, err := RunSweepParallelOpts(context.Background(), NewWorld(cfg), cfg,
			stream.Config{Metrics: reg}, sweepScenarios(t, scenario.Names()...), SweepOptions{Parallel: 2})
		if err != nil {
			t.Fatalf("registry sweep: %v", err)
		}
		regRuns, regMetrics = runs, reg
	}
	return regRuns, regMetrics
}

// assertGolden compares a registry sweep run with its committed fixture
// byte for byte. Under -update it first rewrites the fixture from the
// scenario run alone (reference), so a fixture is always the reference
// executor's output.
func assertGolden(t *testing.T, run SweepRun) {
	t.Helper()
	cfg := goldenConfig()
	encode := func(hs []Headline) []byte {
		data, err := json.MarshalIndent(goldenFixture{run.Name, cfg.TargetUsers, cfg.Seed, hs}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}
	path := filepath.Join("testdata", "headlines-"+run.Name+".json")
	if *update {
		if err := os.WriteFile(path, encode(Headlines(reference(t, cfg, *loadScenario(t, run.Name)))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run GoldenHeadlines -update` to regenerate)", err)
	}
	if got := encode(run.Headlines); string(got) != string(want) {
		t.Errorf("headlines of %s drifted from the golden fixture:\n got: %s\nwant: %s\n(run with -update if the change is intentional)",
			run.Name, got, want)
	}
}

// TestGoldenHeadlines is the end-to-end regression gate: the full
// pipeline (world build, shared February home detection, the sweep's
// study pass, headline extraction) at 500 users must reproduce the
// committed fixture for every registry scenario, bit for bit — JSON
// encodes float64 with shortest round-trip precision, so any drift in
// any simulated value that reaches a headline fails the comparison.
// Run `go test ./internal/experiments -run GoldenHeadlines -update`
// after an intentional behaviour change; it writes each fixture from
// the scenario run alone through RunStreamingOn, and the sweep must
// then still match it.
func TestGoldenHeadlines(t *testing.T) {
	runs, _ := registrySweep(t)
	for _, run := range runs {
		t.Run(run.Name, func(t *testing.T) { assertGolden(t, run) })
	}
}
