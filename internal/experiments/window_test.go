package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// holdFirstDay keeps the engine on the first day until the source's pool
// has missed window times, then a while longer, so producers that could
// run past the backpressure window have every chance to.
type holdFirstDay struct {
	misses *obs.Counter
	window int64
	held   bool
}

func (h *holdFirstDay) ConsumeDay(timegrid.SimDay, []mobsim.DayTrace) {
	if h.held {
		return
	}
	h.held = true
	deadline := time.Now().Add(10 * time.Second)
	for h.misses.Value() < h.window && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
}

// TestSimSourceWindowBoundsStores pins the backpressure window at
// Workers: 2: a SimSource never has more day stores live than
// Workers+Buffer, counting the batch the engine still holds, so its pool
// misses exactly once per store of the window and every later draw is a
// hit. Repeated, because an overrun depends on scheduling; run it under
// -race.
func TestSimSourceWindowBoundsStores(t *testing.T) {
	d := NewDataset(streamingTestConfig())
	for run := 0; run < 20; run++ {
		reg := obs.New()
		scfg := stream.Config{Workers: 2, Metrics: reg}.WithDefaults()
		window := int64(scfg.Workers + scfg.Buffer)
		e := stream.NewEngine(scfg)
		e.AddTraceConsumer(&holdFirstDay{misses: reg.Counter("stream.pool.misses"), window: window})
		src := stream.NewSimSource(context.Background(), d.Sim, nil, 0, timegrid.FebruaryDays, scfg)
		if err := e.Run(context.Background(), src); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		s := reg.Snapshot()
		if got := s.Counters["stream.pool.misses"]; got != window {
			t.Fatalf("run %d: stream.pool.misses = %d, want %d (Workers+Buffer)", run, got, window)
		}
		if got := s.Counters["stream.pool.hits"]; got != timegrid.FebruaryDays-window {
			t.Fatalf("run %d: stream.pool.hits = %d, want %d", run, got, timegrid.FebruaryDays-window)
		}
	}
}

// TestRunStreamingOnWindowIsWorkersPlusOne pins the default window: a
// RunStreamingOn with Buffer unset draws exactly Workers+1 day stores
// over both passes, one per producer plus the day the engine holds. A
// tap holds February's first day until the pool has missed Workers+1
// times, then a while longer, so a wider window would show.
func TestRunStreamingOnWindowIsWorkersPlusOne(t *testing.T) {
	d := NewDataset(streamingTestConfig())
	for _, workers := range []int{1, 2} {
		reg := obs.New()
		want := int64(workers + 1)
		h := &holdFirstDay{misses: reg.Counter("stream.pool.misses"), window: want}
		tap := func(day timegrid.SimDay, traces []mobsim.DayTrace, _ []traffic.CellDay) { h.ConsumeDay(day, traces) }
		if _, err := RunStreamingOn(context.Background(), d, stream.Config{Workers: workers, Metrics: reg}, tap); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := reg.Snapshot().Counters["stream.pool.misses"]; got != want {
			t.Errorf("workers=%d: stream.pool.misses = %d, want %d (Workers+1)", workers, got, want)
		}
	}
}

// TestRunStreamingOnSharesOneWindow pins the shared window of the two
// passes: one RunStreamingOn grows at most Workers+Buffer day stores
// over both February and the study window, draws once per simulated
// day of each, and still returns results bit-identical to the
// one-worker reference run, which has no metrics. Repeated, because
// store reuse depends on scheduling; run it under -race.
func TestRunStreamingOnSharesOneWindow(t *testing.T) {
	cfg := streamingTestConfig()
	d := NewDataset(cfg)
	serial := reference(t, cfg, defaultScenario)
	const draws = timegrid.FebruaryDays + timegrid.SimDays - timegrid.StudyDayOffset
	for _, workers := range []int{1, 2, 3} {
		for run := 0; run < 10; run++ {
			reg := obs.New()
			scfg := stream.Config{Workers: workers, Metrics: reg}.WithDefaults()
			got, err := RunStreamingOn(context.Background(), d, scfg)
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, run, err)
			}
			s := reg.Snapshot()
			misses, hits := s.Counters["stream.pool.misses"], s.Counters["stream.pool.hits"]
			if window := int64(scfg.Workers + scfg.Buffer); misses > window {
				t.Fatalf("workers=%d run %d: stream.pool.misses = %d, want <= %d (one Workers+Buffer window)", workers, run, misses, window)
			}
			if hits+misses != draws {
				t.Fatalf("workers=%d run %d: %d pool draws, want %d (one per simulated day)", workers, run, hits+misses, draws)
			}
			assertResultsEqual(t, serial, got)
		}
	}
}
