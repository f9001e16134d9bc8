package traffic

import (
	"testing"

	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// synthDay builds a hand-crafted day trace: each entry visits exactly
// the given towers, splitting the six 4-hour bins round-robin across
// them. The engine never validates physical consistency, so synthetic
// traces let the tests aim demand at specific towers.
func synthDay(users int, towers []radio.TowerID, atResidence bool) []mobsim.DayTrace {
	traces := make([]mobsim.DayTrace, users)
	for u := range traces {
		traces[u].User = popsim.UserID(u + 1)
		for b := 0; b < timegrid.BinsPerDay; b++ {
			tw := towers[(u+b)%len(towers)]
			traces[u].Visits = append(traces[u].Visits,
				mobsim.MakeVisit(tw, timegrid.Bin(b), 4*3600, atResidence))
		}
	}
	return traces
}

// TestEpochResetNoStaleLeak is the adversarial reset test of the
// epoch-stamped accumulators: a tower hammered on day N and untouched on
// day N+1 must contribute exactly nothing to day N+1 — the lazily-reset
// tile may physically still hold day N's demand, but the stale stamp
// must hide it. The oracle is a fresh engine that never saw day N.
func TestEpochResetNoStaleLeak(t *testing.T) {
	pop, _, _ := fixture(t)
	eng := NewEngine(pop, fixEng.scen, DefaultParams(), 1)
	fresh := NewEngine(pop, fixEng.scen, DefaultParams(), 1)

	hot := []radio.TowerID{3, 17, 101}
	cold := []radio.TowerID{200, 350}
	dayN := timegrid.SimDay(timegrid.StudyDayOffset + 10)
	dayN1 := dayN + 1

	// Day N: saturate the hot towers.
	warm := eng.Day(dayN, synthDay(400, hot, true))
	var hotSum float64
	hotCells := map[radio.CellID]bool{}
	for _, tw := range hot {
		for _, cid := range pop.Topology().Cells4GOfTower(tw) {
			hotCells[cid] = true
		}
	}
	for i := range warm {
		if hotCells[warm[i].Cell] {
			hotSum += warm[i].Values[DLVolume]
		}
	}
	if hotSum == 0 {
		t.Fatal("day N put no demand on the hot towers; fixture broken")
	}

	// Day N+1: only the cold towers. Warm engine vs an engine that never
	// saw day N — any difference is a stale-accumulator leak.
	traces := synthDay(400, cold, false)
	got := eng.Day(dayN1, traces)
	want := fresh.Day(dayN1, traces)
	if len(got) != len(want) {
		t.Fatalf("%d vs %d cells", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell %d: warm %+v vs fresh %+v — stale towerHour demand leaked across the epoch reset",
				got[i].Cell, got[i], want[i])
		}
	}
}

// TestEpochResetNoStaleLeakProperty randomizes the adversary: several
// consecutive days, each visiting a random sparse subset of towers, with
// every day's warm-engine output compared against a fresh engine that
// only ever runs that day. Covers partial overlap (some towers persist,
// some vanish, some appear).
func TestEpochResetNoStaleLeakProperty(t *testing.T) {
	pop, _, _ := fixture(t)
	warm := NewEngine(pop, fixEng.scen, DefaultParams(), 1)
	nTowers := len(pop.Topology().Towers)
	src := rng.New(1234)

	for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.SimDay(timegrid.StudyDayOffset+6); day++ {
		towers := make([]radio.TowerID, 1+src.Intn(7))
		for i := range towers {
			towers[i] = radio.TowerID(src.Intn(nTowers))
		}
		traces := synthDay(50+src.Intn(200), towers, src.Bool(0.5))

		fresh := NewEngine(pop, fixEng.scen, DefaultParams(), 1)
		want := fresh.Day(day, traces)
		got := warm.Day(day, traces)
		if len(got) != len(want) {
			t.Fatalf("day %d: %d vs %d cells", day, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("day %d cell %d: warm %+v vs fresh %+v (stale leak)",
					day, got[i].Cell, got[i], want[i])
			}
		}
	}
}
