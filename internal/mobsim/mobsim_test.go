package mobsim

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/census"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

var (
	fixOnce sync.Once
	fixSim  *Simulator
)

func fixture(t *testing.T) *Simulator {
	t.Helper()
	fixOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		pop := popsim.Synthesize(m, topo, popsim.Config{
			Seed: 1, TargetUsers: 2500,
		})
		fixSim = New(pop, pandemic.Default(), 1)
	})
	return fixSim
}

// totalSeconds sums the dwell of a trace.
func totalSeconds(tr *DayTrace) int64 {
	var s int64
	for _, v := range tr.Visits {
		s += int64(v.Seconds())
	}
	return s
}

func TestDayTraceConservation(t *testing.T) {
	s := fixture(t)
	nightOffDays := 0
	for _, day := range []timegrid.SimDay{0, 10, 23, 40, 60, 99} {
		traces := s.Day(day)
		if len(traces) != len(s.Population().Native()) {
			t.Fatalf("day %d: %d traces for %d users", day, len(traces), len(s.Population().Native()))
		}
		for i := range traces {
			tr := &traces[i]
			// A full day is observed, except night-off days where the
			// device is invisible during bins 0-1 (8 hours).
			got := totalSeconds(tr)
			if got != 86_400 && got != 86_400-8*3600 {
				t.Fatalf("day %d user %d: %d seconds", day, tr.User, got)
			}
			var perBin [timegrid.BinsPerDay]int64
			for _, v := range tr.Visits {
				if v.Bin() < 0 || int(v.Bin()) >= timegrid.BinsPerDay {
					t.Fatalf("visit bin %d out of range", v.Bin())
				}
				if v.Seconds() <= 0 {
					t.Fatalf("non-positive visit seconds %d", v.Seconds())
				}
				perBin[v.Bin()] += int64(v.Seconds())
			}
			nightOff := got != 86_400
			if nightOff {
				nightOffDays++
				if perBin[0] != 0 || perBin[1] != 0 {
					t.Fatalf("night-off day has night visits")
				}
			}
			for b, sec := range perBin {
				if nightOff && b < 2 {
					continue
				}
				if sec != 4*3600 {
					t.Fatalf("day %d user %d bin %d has %d seconds", day, tr.User, b, sec)
				}
			}
		}
	}
	if nightOffDays == 0 {
		t.Error("no night-off agent-days observed; observability model inert")
	}
}

func TestVisitsOrderedByBin(t *testing.T) {
	s := fixture(t)
	traces := s.Day(30)
	for i := range traces {
		prev := timegrid.Bin(0)
		for _, v := range traces[i].Visits {
			if v.Bin() < prev {
				t.Fatalf("visits out of bin order for user %d", traces[i].User)
			}
			prev = v.Bin()
		}
	}
}

func TestDeterminismAndIndependence(t *testing.T) {
	s := fixture(t)
	a := s.Day(50)
	b := s.Day(50)
	if len(a) != len(b) {
		t.Fatal("trace counts differ")
	}
	for i := range a {
		if len(a[i].Visits) != len(b[i].Visits) {
			t.Fatalf("user %d visit counts differ across identical days", a[i].User)
		}
		for j := range a[i].Visits {
			if a[i].Visits[j] != b[i].Visits[j] {
				t.Fatalf("user %d visit %d differs", a[i].User, j)
			}
		}
	}
	// Day simulation is order-independent: simulating day 49 first must
	// not change day 50.
	s.Day(49)
	c := s.UserDay(a[0].User, 50)
	if len(c.Visits) != len(a[0].Visits) {
		t.Fatal("day 50 changed after simulating day 49")
	}
}

func TestNightAtResidence(t *testing.T) {
	s := fixture(t)
	pop := s.Population()
	traces := s.Day(5) // February baseline
	observed := 0
	for i := range traces {
		tr := &traces[i]
		u := pop.User(tr.User)
		var nightHome, night int64
		for _, v := range tr.Visits {
			if v.Bin() == 0 {
				night += int64(v.Seconds())
				if v.Tower() == u.HomeTower && v.AtResidence() {
					nightHome += int64(v.Seconds())
				}
			}
		}
		if night == 0 {
			continue // night-off day: device invisible
		}
		observed++
		if float64(nightHome) < 0.6*float64(night) {
			t.Errorf("user %d spends only %d/%d night seconds at home", tr.User, nightHome, night)
		}
	}
	if observed < len(traces)*3/4 {
		t.Errorf("only %d/%d users observed at night", observed, len(traces))
	}
}

func TestLockdownReducesMobility(t *testing.T) {
	s := fixture(t)
	distinctTowers := func(day timegrid.SimDay) float64 {
		traces := s.Day(day)
		var sum int
		for i := range traces {
			seen := map[radio.TowerID]bool{}
			for _, v := range traces[i].Visits {
				seen[v.Tower()] = true
			}
			sum += len(seen)
		}
		return float64(sum) / float64(len(traces))
	}
	// Tue of week 9 (baseline) vs Tue of week 14 (full lockdown).
	base := distinctTowers(timegrid.SimDay(timegrid.StudyDayOffset + 1))
	lock := distinctTowers(timegrid.SimDay(timegrid.StudyDayOffset + 36))
	if lock >= base*0.85 {
		t.Errorf("distinct towers per user: baseline %v, lockdown %v — expected a clear drop", base, lock)
	}
}

func TestRelocatedUsersAreAway(t *testing.T) {
	s := fixture(t)
	pop := s.Population()
	day := timegrid.LockdownStart.ToSimDay() + 7
	traces := s.Day(day)
	byUser := map[popsim.UserID]*DayTrace{}
	for i := range traces {
		byUser[traces[i].User] = &traces[i]
	}
	checked := 0
	for _, id := range pop.Native() {
		u := pop.User(id)
		if !u.Relocates {
			continue
		}
		checked++
		tr := byUser[id]
		for _, v := range tr.Visits {
			county := pop.Topology().Tower(v.Tower()).County
			if county != u.RelocCounty {
				t.Fatalf("relocated user %d seen in county %d, expected %d", id, county, u.RelocCounty)
			}
		}
	}
	if checked == 0 {
		t.Skip("no relocated users in the small fixture")
	}
}

func TestRelocatedUsersHomeBeforeLockdown(t *testing.T) {
	s := fixture(t)
	pop := s.Population()
	day := timegrid.SimDay(10) // mid-February
	traces := s.Day(day)
	for i := range traces {
		tr := &traces[i]
		u := pop.User(tr.User)
		if !u.Relocates {
			continue
		}
		// Night dwell must still be at the primary home in February.
		for _, v := range tr.Visits {
			if v.Bin() == 0 && v.AtResidence() {
				if pop.Topology().Tower(v.Tower()).District != u.HomeDistrict {
					t.Fatalf("relocated-to-be user %d not at primary home in February", tr.User)
				}
			}
		}
	}
}

func TestRelocationCandidatesStayHomeWhenToggleOff(t *testing.T) {
	// The population is scenario-independent, so relocation candidates
	// exist regardless of scenario; a scenario whose relocation toggle
	// is off must keep every candidate at their primary residence.
	pop := fixture(t).Population()
	noReloc, err := pandemic.NewBuilder().
		Activity(0, 1).
		Activity(28, 0.5).
		Activity(76, 0.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(pop, noReloc, 1)
	day := timegrid.LockdownStart.ToSimDay() + 7
	traces := s.Day(day)
	checked := 0
	for i := range traces {
		tr := &traces[i]
		u := pop.User(tr.User)
		if !u.Relocates {
			continue
		}
		checked++
		for _, v := range tr.Visits {
			if v.AtResidence() && pop.Topology().Tower(v.Tower()).District != u.HomeDistrict {
				t.Fatalf("candidate %d relocated under a relocation-off scenario", tr.User)
			}
		}
	}
	if checked == 0 {
		t.Skip("no relocation candidates in the small fixture")
	}
}

func TestWorkAttendanceCollapses(t *testing.T) {
	s := fixture(t)
	pop := s.Population()
	attendance := func(day timegrid.SimDay) float64 {
		traces := s.Day(day)
		working, workers := 0, 0
		for i := range traces {
			u := pop.User(traces[i].User)
			if u.Profile != popsim.OfficeWorker || len(u.Anchors) < 2 {
				continue
			}
			workers++
			workTower := u.Anchors[1].Tower
			for _, v := range traces[i].Visits {
				if v.Bin() == 2 && v.Tower() == workTower && v.Seconds() > 10_000 {
					working++
					break
				}
			}
		}
		return float64(working) / float64(workers)
	}
	base := attendance(timegrid.SimDay(timegrid.StudyDayOffset + 2))  // Wed week 9
	lock := attendance(timegrid.SimDay(timegrid.StudyDayOffset + 37)) // Wed week 14
	if base < 0.5 {
		t.Errorf("baseline office attendance = %v, want most at work", base)
	}
	if lock > base*0.45 {
		t.Errorf("lockdown attendance = %v vs baseline %v, want a collapse", lock, base)
	}
}

func TestStudentsStopAfterSchoolsClose(t *testing.T) {
	s := fixture(t)
	pop := s.Population()
	attends := func(day timegrid.SimDay) int {
		traces := s.Day(day)
		n := 0
		for i := range traces {
			u := pop.User(traces[i].User)
			if u.Profile != popsim.Student || len(u.Anchors) < 2 {
				continue
			}
			for _, v := range traces[i].Visits {
				if v.Bin() == 2 && v.Tower() == u.Anchors[1].Tower && v.Seconds() > 10_000 {
					n++
					break
				}
			}
		}
		return n
	}
	// Monday of week 14 (schools closed since 20 March): zero school
	// attendance among non-relocated students.
	after := attends(timegrid.SimDay(timegrid.StudyDayOffset + 35))
	before := attends(timegrid.SimDay(timegrid.StudyDayOffset + 1))
	if before == 0 {
		t.Fatal("no students at school at baseline")
	}
	// Some "attendance" can appear by chance (leisure at the school
	// anchor is possible), so allow a small residue.
	if after > before/5 {
		t.Errorf("school attendance after closures = %d vs baseline %d", after, before)
	}
}

func TestUserDayProperty(t *testing.T) {
	s := fixture(t)
	n := uint32(len(s.Population().Native()))
	f := func(uid uint32, day uint8) bool {
		id := popsim.UserID(uid % n)
		d := timegrid.SimDay(int(day) % timegrid.SimDays)
		tr := s.UserDay(id, d)
		if tr.User != id {
			return false
		}
		got := totalSeconds(&tr)
		return got == 86_400 || got == 86_400-8*3600
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHomeAltMemoMatchesPerUserQuery pins the per-tower reselection memo
// in New: every user's alternate home tower equals the per-user
// ReselectionNeighbor query it replaced.
func TestHomeAltMemoMatchesPerUserQuery(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		m := census.BuildUK(seed)
		topo := radio.Build(m, radio.DefaultConfig(), seed)
		pop := popsim.Synthesize(m, topo, popsim.Config{Seed: seed, TargetUsers: 2000})
		s := New(pop, pandemic.Default(), seed)
		if len(s.homeAlt) != len(pop.Users) {
			t.Fatalf("seed %d: %d memo entries for %d users", seed, len(s.homeAlt), len(pop.Users))
		}
		for i, ht := range s.cols.HomeTower {
			if want := topo.ReselectionNeighbor(topo.Tower(ht).Loc, ht); s.homeAlt[i] != want {
				t.Fatalf("seed %d user %d (home tower %d): memo %d, query %d", seed, i, ht, s.homeAlt[i], want)
			}
		}
	}
}
