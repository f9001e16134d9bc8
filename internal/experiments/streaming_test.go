package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// streamingTestConfig is a reduced but KPI-enabled scale: enough users
// for every analyzer to have data, a sparser topology to keep the KPI
// engine fast under -race.
func streamingTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.TargetUsers = 700
	cfg.PopPerTower = 160_000
	return cfg
}

// TestStreamingMatchesSerial asserts the streaming pipeline's worker
// and shard invariance: every worker and shard count is bit-identical
// to the one-worker reference run at the same seed (and a second
// one-worker run repeats it). Run under -race this also exercises the
// engine's synchronization.
func TestStreamingMatchesSerial(t *testing.T) {
	cfg := streamingTestConfig()
	serial := reference(t, cfg, defaultScenario)
	for _, tc := range []struct {
		name    string
		workers int
		shards  int
	}{
		{"workers=1", 1, 0},
		{"workers=2", 2, 0},
		{"workers=8", 8, 0},
		{"workers=4/shards=3", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := mustStreamingConfig(t, cfg, stream.Config{Workers: tc.workers, Shards: tc.shards})
			assertResultsEqual(t, serial, got)
		})
	}
}

// TestStreamingMatchesSerialMobilityOnly covers the SkipKPI path.
func TestStreamingMatchesSerialMobilityOnly(t *testing.T) {
	cfg := streamingTestConfig()
	cfg.SkipKPI = true
	assertResultsEqual(t, reference(t, cfg, defaultScenario), mustStreamingConfig(t, cfg, stream.Config{Workers: 3}))
}

// assertResultsEqual compares every externally observable aggregate of
// two pipeline runs bit for bit.
func assertResultsEqual(t *testing.T, want, got *Results) {
	t.Helper()

	if !reflect.DeepEqual(want.Homes, got.Homes) {
		t.Fatalf("detected homes differ: %d vs %d users", len(want.Homes), len(got.Homes))
	}

	model := want.Dataset.Model
	for _, m := range []core.MobilityMetric{core.MetricEntropy, core.MetricGyration} {
		assertSeriesEqual(t, "mobility national "+m.String(),
			want.Mobility.NationalSeries(m), got.Mobility.NationalSeries(m))
		for ci := range model.Counties {
			c := &model.Counties[ci]
			assertSeriesEqual(t, "mobility county "+c.Name+" "+m.String(),
				want.Mobility.CountySeries(c, m), got.Mobility.CountySeries(c, m))
		}
	}

	if want.Matrix.CohortSize() != got.Matrix.CohortSize() {
		t.Fatalf("cohort size: want %d, got %d", want.Matrix.CohortSize(), got.Matrix.CohortSize())
	}
	assertSeriesEqual(t, "matrix home", want.Matrix.HomePresenceSeries(), got.Matrix.HomePresenceSeries())
	for ci := range model.Counties {
		c := &model.Counties[ci]
		assertSeriesEqual(t, "matrix presence "+c.Name,
			want.Matrix.PresenceSeries(c), got.Matrix.PresenceSeries(c))
	}

	if (want.KPI == nil) != (got.KPI == nil) {
		t.Fatalf("KPI analyzer presence differs")
	}
	if want.KPI != nil {
		for m := traffic.Metric(0); m < traffic.Metric(traffic.NumMetrics); m++ {
			assertSeriesEqual(t, "kpi national "+m.String(),
				want.KPI.NationalSeries(m), got.KPI.NationalSeries(m))
		}
		for di := range model.Districts {
			d := &model.Districts[di]
			assertSeriesEqual(t, "kpi district "+d.Code,
				want.KPI.DistrictSeries(d, traffic.DLVolume), got.KPI.DistrictSeries(d, traffic.DLVolume))
		}
	}
}

func assertSeriesEqual(t *testing.T, what string, want, got interface{ Len() int }) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: series differ", what)
	}
}

// TestStreamingSimSourceOrdered asserts the re-sequencer delivers days in
// order with more workers than buffered slots.
func TestStreamingSimSourceOrdered(t *testing.T) {
	cfg := streamingTestConfig()
	cfg.SkipKPI = true
	d := NewDataset(cfg)
	src := stream.NewSimSource(context.Background(), d.Sim, nil, 0, timegrid.SimDay(12), stream.Config{Workers: 5, Buffer: 1})
	for day := timegrid.SimDay(0); day < 12; day++ {
		b, err := src.Next()
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if b.Day != day {
			t.Fatalf("out of order: want day %d, got %d", day, b.Day)
		}
		if len(b.Traces) == 0 {
			t.Fatalf("day %d: empty traces", day)
		}
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("expected EOF after last day")
	}
}
