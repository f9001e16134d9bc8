package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stream"
)

// sweepScenarios loads a named scenario set for parity tests.
func sweepScenarios(t *testing.T, names ...string) []SweepScenario {
	t.Helper()
	out := make([]SweepScenario, 0, len(names))
	for _, name := range names {
		out = append(out, *loadScenario(t, name))
	}
	return out
}

// assertSweepRunsEqual compares two sweeps bit for bit: run order,
// headline statistics, and every externally observable aggregate of
// every run.
func assertSweepRunsEqual(t *testing.T, want, got []SweepRun) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("run counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("run %d out of sequence: want %s, got %s", i, want[i].Name, got[i].Name)
		}
		if !reflect.DeepEqual(want[i].Headlines, got[i].Headlines) {
			t.Errorf("run %s: headlines differ:\nwant %+v\n got %+v", want[i].Name, want[i].Headlines, got[i].Headlines)
		}
		assertResultsEqual(t, want[i].Results, got[i].Results)
	}
}

// TestParallelSweepMatchesSerial asserts the tentpole invariant: the
// parallel sweep executor is bit-identical to serial RunSweep at worker
// counts 1, 2, 4 and 8, re-sequenced to the input order, while building
// zero additional Worlds (counter-verified). Run under -race this also
// exercises the cross-worker synchronization (the shared immutable
// World, the shared homes map, the per-worker pools).
func TestParallelSweepMatchesSerial(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t,
		scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown,
		scenario.SecondWave, scenario.VoiceSurge)
	w := NewWorld(cfg)
	scfg := stream.Config{Workers: 1}
	serial := mustSweep(t, w, cfg, scfg, scens)

	before := WorldBuildCount()
	for _, parallel := range []int{1, 2, 4, 8} {
		got := mustSweepParallel(t, w, cfg, scfg, scens, parallel)
		assertSweepRunsEqual(t, serial, got)
	}
	if extra := WorldBuildCount() - before; extra != 0 {
		t.Fatalf("parallel sweeps built %d extra worlds, want 0", extra)
	}
}

// TestParallelSweepMatchesSerialKPI covers the engine-reuse path: with
// KPI enabled and more scenarios than workers, each sweep worker runs
// several scenarios on one rebound traffic engine (Engine.Rebind), and
// the KPI series must still be bit-identical to the serial sweep's
// freshly constructed engines.
func TestParallelSweepMatchesSerialKPI(t *testing.T) {
	cfg := streamingTestConfig() // KPI enabled, sparser topology
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.VoiceSurge)
	w := NewWorld(cfg)
	scfg := stream.Config{Workers: 1}
	serial := mustSweep(t, w, cfg, scfg, scens)
	for i := range serial {
		if serial[i].Results.KPI == nil {
			t.Fatalf("run %s has no KPI analyzer", serial[i].Name)
		}
	}
	got := mustSweepParallel(t, w, cfg, scfg, scens, 2)
	assertSweepRunsEqual(t, serial, got)
	// Documented contract: parallel runs carry no live engine — it is
	// per-worker scratch that would otherwise alias every run of a
	// worker to its last scenario.
	for _, run := range got {
		if run.Results.Dataset.Engine != nil {
			t.Fatalf("run %s exports the worker's shared engine", run.Name)
		}
	}
}

// TestParallelSweepDegradesToSerial pins the clamping contract: a
// worker count above the scenario count runs a single-scenario sweep on
// one worker.
func TestParallelSweepDegradesToSerial(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid)
	w := NewWorld(cfg)
	runs := mustSweepParallel(t, w, cfg, stream.Config{Workers: 1}, scens, 8)
	if len(runs) != 1 || runs[0].Name != scenario.DefaultCovid {
		t.Fatalf("unexpected runs: %+v", runs)
	}
	if len(runs[0].Headlines) == 0 {
		t.Fatal("degraded run has no headlines")
	}
}

// TestParallelSweepEmpty pins the empty-sweep contract: no scenarios, no
// runs, no error, at any worker count and sharing mode.
func TestParallelSweepEmpty(t *testing.T) {
	for _, shared := range []bool{false, true} {
		runs, err := RunSweepParallelOpts(context.Background(), nil, Config{}, stream.Config{}, nil,
			SweepOptions{Parallel: 2, SharePrefix: shared})
		if err != nil || len(runs) != 0 {
			t.Fatalf("shared=%v: got %d runs, err %v; want none", shared, len(runs), err)
		}
	}
}
