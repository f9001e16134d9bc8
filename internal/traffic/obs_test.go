package traffic

import (
	"testing"

	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/timegrid"
)

// TestDayAppendInstrumentedSteadyStateAllocs pins the observability
// contract on the serial hot path: with metrics *enabled*, a warm
// DayAppend still performs zero heap allocations — instrumentation is
// pre-resolved handles plus atomic updates, nothing more.
func TestDayAppendInstrumentedSteadyStateAllocs(t *testing.T) {
	_, sim, _ := fixture(t)
	eng := fixEng.Clone().Instrument(obs.New())
	days := []timegrid.SimDay{
		timegrid.SimDay(timegrid.StudyDayOffset + 3),
		timegrid.SimDay(timegrid.StudyDayOffset + 30),
	}
	traces := make([][]mobsim.DayTrace, len(days))
	for i, day := range days {
		traces[i] = sim.Day(day)
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
		t.Errorf("instrumented DayAppend allocates %.1f times per day in steady state, want 0", allocs)
	}
}

// TestInstrumentedMatchesUninstrumented pins "instrumentation observes,
// never perturbs": records from an instrumented engine are bit-identical
// to the plain engine's, and the metrics it produced account for every
// visit exactly once.
func TestInstrumentedMatchesUninstrumented(t *testing.T) {
	_, sim, eng := fixture(t)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 11)
	traces := sim.Day(day)
	want := eng.Day(day, traces)

	reg := obs.New()
	ins := fixEng.Clone().Instrument(reg)
	got := ins.DayAppend(nil, day, traces)
	if len(want) != len(got) {
		t.Fatalf("%d vs %d cells", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("cell %d: %+v vs %+v", i, want[i], got[i])
		}
	}

	var visits int64
	for i := range traces {
		visits += int64(len(traces[i].Visits))
	}
	s := reg.Snapshot()
	if s.Counters["traffic.visits"] != visits {
		t.Fatalf("traffic.visits = %d, want %d", s.Counters["traffic.visits"], visits)
	}
	if h := s.Histograms["traffic.day_ns"]; h.Count != 1 || h.SumNs <= 0 {
		t.Fatalf("traffic.day_ns = %+v, want one positive observation", h)
	}
}
