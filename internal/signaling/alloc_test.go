package signaling

import (
	"testing"

	"repro/internal/mobsim"
	"repro/internal/timegrid"
)

// allocDays spans February and the lockdown window, so the roamer
// presence draw takes both branches.
var allocDays = []timegrid.SimDay{5, 30, 60, 90}

// TestDayAggregateSteadyStateAllocs pins the signaling stage of the
// zero-allocation day pipeline: Generator.Day into Aggregator.Consume
// allocates nothing — per event or per user-day, M2M and roamer
// background included.
func TestDayAggregateSteadyStateAllocs(t *testing.T) {
	_, sim, gen := fixture(t)
	traces := make([][]mobsim.DayTrace, len(allocDays))
	for i, day := range allocDays {
		traces[i] = sim.DayInto(mobsim.NewDayBuffer(), day)
	}
	agg := NewAggregator()
	for i, day := range allocDays {
		gen.Day(day, traces[i], agg.Consume)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(allocDays)*2, func() {
		k := i % len(allocDays)
		gen.Day(allocDays[k], traces[k], agg.Consume)
		i++
	})
	if allocs > 0 {
		t.Errorf("Generator.Day into Aggregator.Consume allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// TestAggregatorMatchesEventTally checks the aggregator against a plain
// tally of the same collected events.
func TestAggregatorMatchesEventTally(t *testing.T) {
	_, sim, gen := fixture(t)
	var events []Event
	for _, day := range allocDays[:2] {
		gen.Day(day, sim.DayInto(mobsim.NewDayBuffer(), day), func(e Event) { events = append(events, e) })
	}

	var byType [NumEventTypes]int64
	var failures int64
	agg := NewAggregator()
	for _, e := range events {
		agg.Consume(e)
		byType[e.Type]++
		if !e.OK {
			failures++
		}
	}

	if agg.Total != int64(len(events)) || agg.Failures != failures || agg.ByType != byType {
		t.Errorf("totals: got %d events, %d failures, types %v; want %d, %d, %v",
			agg.Total, agg.Failures, agg.ByType, len(events), failures, byType)
	}
}
