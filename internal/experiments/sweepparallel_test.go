package experiments

import (
	"context"
	"fmt"
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

// assertSweepModesMatch runs the copy-on-divergence sweep at worker
// counts 1, 2, 4 and 8, and requires every sweep to be bit-identical to
// the scenarios' reference runs, re-sequenced to the input order. The
// subtests keep their shared=true label, so their names match the
// earlier runs that also swept without sharing.
func assertSweepModesMatch(t *testing.T, w *World, cfg Config, scens []SweepScenario) []SweepRun {
	t.Helper()
	ref := referenceRuns(t, cfg, scens)
	var last []SweepRun
	for _, parallel := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shared=true/parallel=%d", parallel), func(t *testing.T) {
			last = mustSweep(t, w, cfg, scens, SweepOptions{Parallel: parallel})
			assertSweepRunsEqual(t, ref, last)
		})
	}
	return last
}

// TestParallelSweepMatchesSerial asserts the executor invariant: the
// registry sweep — its whole fork tree, a grandchild fork and two
// riders included — is bit-identical to running each scenario alone
// through the streaming pipeline, at every sweep worker count, one
// included, while building zero additional Worlds (counter-verified).
// Run under -race this also exercises the cross-worker synchronization
// (the shared immutable World, the shared homes map, the checkpoints
// handed from parent to child through the ready queue and the scratch
// pool).
func TestParallelSweepMatchesSerial(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.Names()...)
	w := NewWorld(cfg)
	referenceRuns(t, cfg, scens) // each reference builds a world of its own
	before := WorldBuildCount()
	assertSweepModesMatch(t, w, cfg, scens)
	if extra := WorldBuildCount() - before; extra != 0 {
		t.Fatalf("sweeps built %d extra worlds, want 0", extra)
	}
}

// TestParallelSweepMatchesSerialKPI covers the engine-reuse path: with
// KPI enabled, runs draw warm traffic engines from the sweep's pool
// (Engine.Rebind) and the sweep carries voice-surge as a rider on
// default-covid's day loop, yet the KPI series must still be
// bit-identical to the reference's freshly constructed engines.
func TestParallelSweepMatchesSerialKPI(t *testing.T) {
	cfg := streamingTestConfig() // KPI enabled, sparser topology
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.VoiceSurge)
	w := NewWorld(cfg)
	got := assertSweepModesMatch(t, w, cfg, scens)
	for _, run := range got {
		if run.Results.KPI == nil {
			t.Fatalf("run %s has no KPI analyzer", run.Name)
		}
		// Documented contract: sweep runs carry no live engine — engines
		// are recycled across runs and would otherwise alias a run to
		// whichever scenario rebound them last.
		if run.Results.Dataset.Engine != nil {
			t.Fatalf("run %s exports the sweep's pooled engine", run.Name)
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
	runs := mustSweep(t, w, cfg, scens, SweepOptions{Parallel: 8})
	if len(runs) != 1 || runs[0].Name != scenario.DefaultCovid {
		t.Fatalf("unexpected runs: %+v", runs)
	}
	if len(runs[0].Headlines) == 0 {
		t.Fatal("degraded run has no headlines")
	}
}

// TestParallelSweepEmpty pins the empty-sweep contract: no scenarios, no
// runs, no error.
func TestParallelSweepEmpty(t *testing.T) {
	runs, err := RunSweepParallelOpts(context.Background(), nil, Config{}, stream.Config{}, nil, SweepOptions{Parallel: 2})
	if err != nil || len(runs) != 0 {
		t.Fatalf("got %d runs, err %v; want none", len(runs), err)
	}
}
