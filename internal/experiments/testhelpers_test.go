package experiments

import (
	"context"
	"testing"

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

// streamingReference is the sweep parity reference, independent of the
// sweep executor: each scenario instantiated on w and run alone through
// the streaming pipeline, February home detection included.
func streamingReference(t testing.TB, w *World, cfg Config, scens []SweepScenario) []SweepRun {
	t.Helper()
	out := make([]SweepRun, len(scens))
	for i, sc := range scens {
		c := cfg
		c.Scenario = sc.Scenario
		r, err := RunStreamingOn(context.Background(), w.Instantiate(c), stream.Config{Workers: 2})
		if err != nil {
			t.Fatalf("RunStreamingOn(%s): %v", sc.Name, err)
		}
		out[i] = SweepRun{Name: sc.Name, Results: r, Headlines: Headlines(r)}
	}
	return out
}
