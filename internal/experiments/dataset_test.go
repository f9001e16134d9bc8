package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// TestRunStreamingOnTaps pins the DayTap contract: every simulated day
// reaches the tap once, in order, with the day's traces and the run's
// KPI records (nil before the study window and without an engine), and
// attaching a tap — one that even drives the dataset's own engine
// before the study window, as cmd/mnosim's feed tap does — leaves the
// Results bit-identical to the untapped reference run of each SkipKPI
// value (the results do not depend on the worker count). The per-day
// oracle runs on a second dataset: the study pass produces on d.Engine
// while the taps run.
func TestRunStreamingOnTaps(t *testing.T) {
	for _, skipKPI := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.TargetUsers = 500
		cfg.SkipKPI = skipKPI
		plain := reference(t, cfg, defaultScenario)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers=%d/SkipKPI=%v", workers, skipKPI), func(t *testing.T) {
				scfg := stream.Config{Workers: workers}
				d, oracle := NewDataset(cfg), NewDataset(cfg)
				buf := mobsim.NewDayBuffer()
				next := timegrid.SimDay(0)
				tap := func(day timegrid.SimDay, traces []mobsim.DayTrace, cells []traffic.CellDay) {
					if day != next {
						t.Fatalf("tap got day %d, want %d", day, next)
					}
					next++
					want := oracle.Sim.DayInto(buf, day)
					if !slices.EqualFunc(traces, want, func(a, b mobsim.DayTrace) bool {
						return a.User == b.User && slices.Equal(a.Visits, b.Visits)
					}) {
						t.Fatalf("day %d: tapped traces differ from a fresh DayInto", day)
					}
					if skipKPI || day < timegrid.StudyDayOffset {
						if cells != nil {
							t.Fatalf("day %d: cells = %d records, want nil", day, len(cells))
						}
						if !skipKPI {
							d.Engine.DayAppend(nil, day, traces) // the feed tap's use
						}
						return
					}
					if !slices.Equal(cells, oracle.Engine.DayAppend(nil, day, traces)) {
						t.Fatalf("day %d: tapped cells differ from DayAppend", day)
					}
				}
				got, err := RunStreamingOn(context.Background(), d, scfg, tap)
				if err != nil {
					t.Fatalf("RunStreamingOn: %v", err)
				}
				if next != timegrid.SimDays {
					t.Fatalf("tap saw %d days, want %d", next, timegrid.SimDays)
				}
				assertResultsEqual(t, plain, got)
			})
		}
	}
}
