package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// TestRunStandardOnTaps pins the DayTap contract: every simulated day
// reaches the tap once, in order, with the day's traces and the run's
// KPI records (nil before the study window and without an engine), and
// attaching a tap — one that even drives the dataset's own simulator
// and engine, as cmd/mnosim's feed tap does — leaves the Results
// bit-identical.
func TestRunStandardOnTaps(t *testing.T) {
	for _, skipKPI := range []bool{false, true} {
		t.Run(fmt.Sprintf("SkipKPI=%v", skipKPI), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TargetUsers = 500
			cfg.SkipKPI = skipKPI
			plain := RunStandardOn(NewDataset(cfg))

			d := NewDataset(cfg)
			next := timegrid.SimDay(0)
			tap := func(day timegrid.SimDay, traces []mobsim.DayTrace, cells []traffic.CellDay) {
				if day != next {
					t.Fatalf("tap got day %d, want %d", day, next)
				}
				next++
				want := d.Sim.DayInto(mobsim.NewDayBuffer(), day)
				if !slices.EqualFunc(traces, want, func(a, b mobsim.DayTrace) bool {
					return a.User == b.User && slices.Equal(a.Visits, b.Visits)
				}) {
					t.Fatalf("day %d: tapped traces differ from a fresh DayInto", day)
				}
				if skipKPI || day < timegrid.StudyDayOffset {
					if cells != nil {
						t.Fatalf("day %d: cells = %d records, want nil", day, len(cells))
					}
					return
				}
				if !slices.Equal(cells, d.Engine.DayAppend(nil, day, traces)) {
					t.Fatalf("day %d: tapped cells differ from DayAppend", day)
				}
			}
			got := RunStandardOn(d, tap)
			if next != timegrid.SimDays {
				t.Fatalf("tap saw %d days, want %d", next, timegrid.SimDays)
			}
			assertResultsEqual(t, plain, got)
		})
	}
}
