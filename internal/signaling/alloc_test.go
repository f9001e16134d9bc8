package signaling

import (
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/timegrid"
)

// allocDays spans February and the lockdown window, so the roamer
// presence draw takes both branches.
var allocDays = []timegrid.SimDay{5, 30, 60, 90}

// TestDayAggregateSteadyStateAllocs pins the signaling stage of the
// zero-allocation day pipeline: once an aggregator's user bitset has
// grown, Generator.Day into Aggregator.Consume allocates nothing — per
// event or per user-day, M2M and roamer background included.
func TestDayAggregateSteadyStateAllocs(t *testing.T) {
	pop, sim, gen := fixture(t)
	traces := make([][]mobsim.DayTrace, len(allocDays))
	for i, day := range allocDays {
		traces[i] = sim.Day(day)
	}
	agg := NewAggregator(pop.Topology())
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

// TestAggregatorMatchesEventTally checks the dense aggregator against a
// plain map tally of the same collected events.
func TestAggregatorMatchesEventTally(t *testing.T) {
	pop, sim, gen := fixture(t)
	topo := pop.Topology()
	var events []Event
	for _, day := range allocDays[:2] {
		gen.Day(day, sim.Day(day), func(e Event) { events = append(events, e) })
	}

	byDistrict := map[census.DistrictID]DistrictCounts{}
	users := map[popsim.UserID]bool{}
	var byType [NumEventTypes]int64
	var failures int64
	agg := NewAggregator(topo)
	for _, e := range events {
		agg.Consume(e)
		d := topo.Tower(e.Tower).District
		dc := byDistrict[d]
		dc.Total++
		dc.ByType[e.Type]++
		byType[e.Type]++
		if !e.OK {
			dc.Failures++
			failures++
		}
		byDistrict[d] = dc
		users[e.User] = true
	}

	if agg.Total != int64(len(events)) || agg.Failures != failures || agg.ByType != byType {
		t.Errorf("totals: got %d events, %d failures, types %v; want %d, %d, %v",
			agg.Total, agg.Failures, agg.ByType, len(events), failures, byType)
	}
	if agg.DistinctUsers() != len(users) {
		t.Errorf("distinct users = %d, want %d", agg.DistinctUsers(), len(users))
	}
	nonZero := 0
	for d, dc := range agg.ByDistrict {
		if dc == (DistrictCounts{}) {
			continue
		}
		nonZero++
		if want := byDistrict[census.DistrictID(d)]; dc != want {
			t.Errorf("district %d: got %+v, want %+v", d, dc, want)
		}
	}
	if nonZero != len(byDistrict) {
		t.Errorf("%d districts with events, want %d", nonZero, len(byDistrict))
	}
}
