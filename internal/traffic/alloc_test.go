package traffic

import (
	"testing"

	"repro/internal/mobsim"
	"repro/internal/timegrid"
)

// TestDayAppendSteadyStateAllocs pins the engine's zero-allocation
// guarantee: with the hourly staging buffers warm and a reused
// destination, a full day of KPI generation performs no heap allocation.
// The pre-refactor Day allocated the output slice, ten hourly-value
// buckets, a median copy per cell-metric and a weight slice per tower —
// tens of thousands of allocations per day.
func TestDayAppendSteadyStateAllocs(t *testing.T) {
	_, sim, eng := fixture(t)
	days := []timegrid.SimDay{
		timegrid.SimDay(timegrid.StudyDayOffset + 3),
		timegrid.SimDay(timegrid.StudyDayOffset + 30),
	}
	traces := make([][]mobsim.DayTrace, len(days))
	for i, day := range days {
		traces[i] = sim.DayInto(mobsim.NewDayBuffer(), day)
	}
	var cells []CellDay
	for i, day := range days {
		cells = eng.DayAppend(cells[:0], day, traces[i]) // warm
	}
	i := 0
	allocs := testing.AllocsPerRun(6, func() {
		cells = eng.DayAppend(cells[:0], days[i%len(days)], traces[i%len(days)])
		i++
	})
	if allocs > 0 {
		t.Errorf("DayAppend allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// TestDayAppendColdDestination pins the cold path: on a warm engine,
// DayAppend into a nil destination allocates exactly once, sized to the
// 4G cell count, rather than regrowing the slice record by record.
func TestDayAppendColdDestination(t *testing.T) {
	pop, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 3)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	eng.DayAppend(nil, day, traces) // warm the engine's staging buffers
	var cells []CellDay
	allocs := testing.AllocsPerRun(3, func() {
		cells = eng.DayAppend(nil, day, traces)
	})
	if allocs != 1 {
		t.Errorf("DayAppend(nil, ...) allocates %.1f times on a warm engine, want 1", allocs)
	}
	if n := len(pop.Topology().Cells4G()); cap(cells) < n {
		t.Errorf("cold destination cap %d, want >= %d 4G cells", cap(cells), n)
	}
}

// TestDayAppendMatchesDay asserts a reused destination yields records
// bit-identical to a fresh one.
func TestDayAppendMatchesDay(t *testing.T) {
	_, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 23)
	traces := sim.DayInto(mobsim.NewDayBuffer(), day)
	fresh := eng.DayAppend(nil, day, traces)
	var reused []CellDay
	reused = eng.DayAppend(reused[:0], day, traces)
	reused = eng.DayAppend(reused[:0], day, traces) // exercise reuse
	if len(fresh) != len(reused) {
		t.Fatalf("%d vs %d cells", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("cell %d: %+v vs %+v", i, fresh[i], reused[i])
		}
	}
}
