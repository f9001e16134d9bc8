package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// TestStreamingInstrumentedBitIdentical pins the end-to-end observability
// contract at the pipeline level: running the streaming pipeline with a
// live metrics registry yields results bit-identical to the
// uninstrumented one-worker reference run, and the registry comes back
// populated with the core stage metrics — worker busy time, pool
// hit/miss accounting, per-day produce latency and the traffic engine's
// day timings.
func TestStreamingInstrumentedBitIdentical(t *testing.T) {
	cfg := streamingTestConfig()
	serial := reference(t, cfg, defaultScenario)

	reg := obs.New()
	got := mustStreamingConfig(t, cfg, stream.Config{Workers: 3, Metrics: reg})
	assertResultsEqual(t, serial, got)

	s := reg.Snapshot()
	// February home detection plus the study window, one produced batch
	// (and one engine day) each.
	const totalDays = timegrid.FebruaryDays + (timegrid.SimDays - timegrid.StudyDayOffset)
	const studyDays = timegrid.SimDays - timegrid.StudyDayOffset

	for _, name := range []string{
		"stream.worker.busy_ns",
		"stream.worker.idle_ns",
		"stream.pool.hits",
		"stream.pool.misses",
		"traffic.visits",
	} {
		if _, ok := s.Counters[name]; !ok {
			t.Errorf("counter %s missing from snapshot", name)
		}
	}
	if s.Counters["stream.worker.busy_ns"] <= 0 {
		t.Errorf("stream.worker.busy_ns = %d, want > 0", s.Counters["stream.worker.busy_ns"])
	}
	if got := s.Counters["stream.engine.days"]; got != totalDays {
		t.Errorf("stream.engine.days = %d, want %d (Feb pass + study window)", got, totalDays)
	}
	if got := s.Histograms["stream.produce_day_ns"].Count; got != totalDays {
		t.Errorf("stream.produce_day_ns count = %d, want %d (one per produced day)", got, totalDays)
	}
	// The traffic engine only runs inside the study window (the February
	// pass carries no KPI engine).
	if got := s.Histograms["traffic.day_ns"].Count; got != studyDays {
		t.Errorf("traffic.day_ns count = %d, want %d (one per study day)", got, studyDays)
	}
	// The study source draws its day stores from an instrumented pool.
	if total := s.Counters["stream.pool.hits"] + s.Counters["stream.pool.misses"]; total < studyDays {
		t.Errorf("pool hits+misses = %d, want >= %d (one draw per study day)", total, studyDays)
	}
}

// TestSweepParallelInstrumented pins the sweep-level metrics at every
// worker count: every scenario run is counted once, every day loop is
// timed and queue-stamped once, and the world-builds gauge records the
// shared-dataset guarantee (builds do not scale with runs). A rider
// shares its host's day loop, so the sweep below times two loops for
// its three runs (voice-surge rides default-covid). The subtests keep
// their shared=true label, so their names match the earlier runs that
// also swept without sharing.
func TestSweepParallelInstrumented(t *testing.T) {
	cfg := streamingTestConfig()
	cfg.SkipKPI = true
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic, scenario.VoiceSurge)
	w := NewWorld(cfg)
	const loops = 2

	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d/shared=true", parallel), func(t *testing.T) {
			reg := obs.New()
			before := WorldBuildCount()
			runs, err := RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{Workers: 1, Metrics: reg}, scens,
				SweepOptions{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != len(scens) {
				t.Fatalf("got %d runs, want %d", len(runs), len(scens))
			}

			s := reg.Snapshot()
			if got, want := s.Counters["sweep.runs"], int64(len(scens)); got != want {
				t.Errorf("sweep.runs = %d, want %d", got, want)
			}
			if got := s.Histograms["sweep.run_ns"].Count; got != loops {
				t.Errorf("sweep.run_ns count = %d, want %d (one per day loop)", got, loops)
			}
			if got := s.Histograms["sweep.queue_wait_ns"].Count; got != loops {
				t.Errorf("sweep.queue_wait_ns count = %d, want %d (one per day loop)", got, loops)
			}
			if got, ok := s.Gauges["sweep.world_builds"]; !ok || got != WorldBuildCount() {
				t.Errorf("sweep.world_builds = %d (present %v), want %d (current WorldBuildCount)", got, ok, WorldBuildCount())
			}
			if extra := WorldBuildCount() - before; extra != 0 {
				t.Errorf("instrumented sweep built %d extra worlds, want 0", extra)
			}
		})
	}
}
