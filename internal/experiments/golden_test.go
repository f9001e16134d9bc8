package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
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

// TestGoldenHeadlines is the end-to-end regression gate: the full
// pipeline (world build, shared February home detection, streaming
// study pass, headline extraction) at 500 users must reproduce the
// committed fixture for every registry scenario, bit for bit — JSON
// encodes float64 with shortest round-trip precision, so any drift in
// any simulated value that reaches a headline fails the comparison.
// Run `go test ./internal/experiments -run GoldenHeadlines -update`
// after an intentional behaviour change.
func TestGoldenHeadlines(t *testing.T) {
	cfg := goldenConfig()
	var scens []SweepScenario
	for _, name := range scenario.Names() {
		scens = append(scens, *loadScenario(t, name))
	}
	w := NewWorld(cfg)
	runs := mustSweep(t, w, cfg, scens, SweepOptions{Parallel: 2})

	for _, run := range runs {
		run := run
		t.Run(run.Name, func(t *testing.T) {
			fix := goldenFixture{
				Scenario:  run.Name,
				Users:     cfg.TargetUsers,
				Seed:      cfg.Seed,
				Headlines: run.Headlines,
			}
			data, err := json.MarshalIndent(fix, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			path := filepath.Join("testdata", "headlines-"+run.Name+".json")
			if *update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/experiments -run GoldenHeadlines -update` to regenerate)", err)
			}
			if string(data) != string(want) {
				t.Errorf("headlines of %s drifted from the golden fixture:\n got: %s\nwant: %s\n(run with -update if the change is intentional)",
					run.Name, data, want)
			}
		})
	}
}
