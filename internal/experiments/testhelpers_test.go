package experiments

import (
	"context"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/stream"
)

// mustRow returns the row of tb labelled label, failing the test when
// there is none.
func mustRow(t testing.TB, tb stats.Table, label string) stats.TableRow {
	t.Helper()
	for _, r := range tb.Rows {
		if r.Label == label {
			return r
		}
	}
	t.Fatalf("%s row missing", label)
	return stats.TableRow{}
}

// The streaming and sweep runners return errors only under cancellation
// or fault injection; the functional tests run clean pipelines, so they
// funnel through these must-helpers and keep their assertions on the
// results.

func mustStreamingConfig(t testing.TB, cfg Config, scfg stream.Config) *Results {
	t.Helper()
	r, err := RunStreamingOn(context.Background(), NewDataset(cfg), scfg)
	if err != nil {
		t.Fatalf("RunStreamingOn: %v", err)
	}
	return r
}

func mustSweep(t testing.TB, w *World, cfg Config, scens []SweepScenario, opt SweepOptions) []SweepRun {
	t.Helper()
	runs, err := RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{}, scens, opt)
	if err != nil {
		t.Fatalf("RunSweepParallelOpts: %v", err)
	}
	return runs
}

// defaultScenario is the calibrated default run: a nil Scenario, which
// Config and reference read as pandemic.Default().
var defaultScenario = SweepScenario{Name: scenario.DefaultCovid}

// refRuns holds the reference runs by config (its Scenario nil) and
// scenario name. The tests of this package run one at a time, so the
// map needs no lock.
var refRuns = map[refKey]*Results{}

type refKey struct {
	cfg  Config
	name string
}

// reference is the parity oracle, independent of the sweep executor: sc
// run alone through RunStreamingOn on one worker, February home
// detection included. It runs once per (config, scenario name) per test
// binary and is shared, read only, by every test that asks; cfg's own
// Scenario is ignored. default-covid runs as
// the nil-scenario default path, so the loaded spec and defaultScenario
// share one run (TestDefaultCovidSpecBitIdenticalToDefaultPath pins the
// two equal).
func reference(t testing.TB, cfg Config, sc SweepScenario) *Results {
	t.Helper()
	cfg.Scenario = nil
	if sc.Name == scenario.DefaultCovid {
		sc.Scenario = nil
	}
	k := refKey{cfg, sc.Name}
	if r := refRuns[k]; r != nil {
		return r
	}
	c := cfg
	c.Scenario = sc.Scenario
	r, err := RunStreamingOn(context.Background(), NewDataset(c), stream.Config{Workers: 1})
	if err != nil {
		t.Fatalf("reference %s: %v", sc.Name, err)
	}
	refRuns[k] = r
	return r
}

// referenceRuns is reference over a scenario list, in the shape of the
// sweep runs it is compared against.
func referenceRuns(t testing.TB, cfg Config, scens []SweepScenario) []SweepRun {
	t.Helper()
	out := make([]SweepRun, len(scens))
	for i, sc := range scens {
		r := reference(t, cfg, sc)
		out[i] = SweepRun{Name: sc.Name, Results: r, Headlines: Headlines(r)}
	}
	return out
}
