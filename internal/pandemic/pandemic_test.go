package pandemic

import (
	"testing"

	"repro/internal/census"
	"repro/internal/timegrid"
)

func TestActivityTimeline(t *testing.T) {
	s := Default()
	if got := s.Activity(0); got != 1 {
		t.Errorf("baseline activity = %v", got)
	}
	// Monotone decline from declaration to the week-14 trough.
	prev := s.Activity(timegrid.PandemicDeclared)
	for d := timegrid.PandemicDeclared; d <= 41; d++ {
		a := s.Activity(d)
		if a > prev+1e-9 {
			t.Fatalf("activity rose during the restriction ramp at day %d", d)
		}
		prev = a
	}
	// Ordering at milestones.
	if !(s.Activity(timegrid.WorkFromHomeAdvice) > s.Activity(timegrid.VenueClosures) &&
		s.Activity(timegrid.VenueClosures) > s.Activity(timegrid.LockdownStart)) {
		t.Error("milestone activities out of order")
	}
	// Trough below 0.5, mild relaxation afterwards.
	if s.Activity(41) > 0.5 {
		t.Errorf("trough activity = %v", s.Activity(41))
	}
	if s.Activity(timegrid.StudyDays-1) <= s.Activity(41) {
		t.Error("no relaxation by the end of the window")
	}
}

func TestRegionalRelaxation(t *testing.T) {
	s := Default()
	m := census.BuildUK(1)
	inner, _ := m.CountyByName("Inner London")
	gm, _ := m.CountyByName("Greater Manchester")
	late := timegrid.StudyDay((18-timegrid.FirstWeek)*7 + 2)
	if s.RegionalActivity(late, inner) <= s.RegionalActivity(late, gm) {
		t.Error("Inner London should relax more than Greater Manchester in week 18")
	}
	early := timegrid.LockdownStart
	if s.RegionalActivity(early, inner) != s.Activity(early) {
		t.Error("relax bonus must not apply before week 18")
	}
	// Bonus never pushes activity above baseline.
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		if s.RegionalActivity(d, inner) > 1 {
			t.Fatalf("regional activity > 1 at day %d", d)
		}
	}
	if s.RegionalActivity(late, nil) != s.Activity(late) {
		t.Error("nil county should fall back to national")
	}
}

func TestVoiceCurve(t *testing.T) {
	s := Default()
	if got := s.VoiceFactor(0); got != 1 {
		t.Errorf("baseline voice factor = %v", got)
	}
	w12 := timegrid.VenueClosures
	if got := s.VoiceFactor(w12); got < 2.2 || got > 2.6 {
		t.Errorf("week-12 voice factor = %v, want ≈2.4 (+140%%)", got)
	}
	// Peak right after lockdown, then decay.
	peak := s.VoiceFactor(timegrid.LockdownStart + 2)
	if peak < 2.4 || peak > 2.6 {
		t.Errorf("voice peak = %v, want ≈2.5", peak)
	}
	if s.VoiceFactor(timegrid.StudyDays-1) >= peak {
		t.Error("voice factor should decay after the peak")
	}
	if s.VoiceFactor(timegrid.StudyDays-1) < 1.5 {
		t.Error("voice stays well above baseline through May")
	}
}

func TestDataFactors(t *testing.T) {
	s := Default()
	if got := s.DataFactor(8); got <= 1.02 {
		t.Errorf("week-10 data factor = %v, want >1 (the +8%% news surge)", got)
	}
	if got := s.HomeCellularFactor(timegrid.LockdownStart + 10); got >= 0.9 {
		t.Errorf("lockdown home-cellular factor = %v, want WiFi offload", got)
	}
	if got := s.ThrottleFactor(0); got != 1 {
		t.Errorf("baseline throttle = %v", got)
	}
	if got := s.ThrottleFactor(timegrid.LockdownStart); got >= 0.95 {
		t.Errorf("post-closures throttle = %v, want content quality reduction", got)
	}
}

func TestCaseCurve(t *testing.T) {
	s := Default()
	// ≈1,000 cases at the declaration (Fig. 4's red line).
	decl := s.CumulativeCases(timegrid.PandemicDeclared)
	if decl < 200 || decl > 6000 {
		t.Errorf("cases at declaration = %v, want O(1000)", decl)
	}
	// Strictly increasing, sigmoid-bounded.
	prev := -1.0
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		c := s.CumulativeCases(d)
		if c <= prev {
			t.Fatalf("case curve not increasing at day %d", d)
		}
		if c < 0 || c > 200_000 {
			t.Fatalf("case count %v out of bounds", c)
		}
		prev = c
	}
	if end := s.CumulativeCases(timegrid.StudyDays - 1); end < 100_000 {
		t.Errorf("end-of-window cases = %v, want >100k", end)
	}
}

func TestRelocationWindow(t *testing.T) {
	s := Default()
	if s.RelocationActive(0) {
		t.Error("relocation must not be active in February")
	}
	if s.RelocationActive(timegrid.SimDay(timegrid.StudyDayOffset)) {
		t.Error("relocation must not be active in week 9")
	}
	lockdownSim := timegrid.LockdownStart.ToSimDay()
	if !s.RelocationActive(lockdownSim) {
		t.Error("relocation should be active by the lockdown")
	}
	if !s.RelocationActive(timegrid.SimDays - 1) {
		t.Error("relocation persists through the window")
	}
}

func TestRelocationProb(t *testing.T) {
	s := Default()
	m := census.BuildUK(1)
	ec := districtByCode(t, m, "EC")
	sw := districtByCode(t, m, "SW")
	if !s.relocationOn() {
		t.Fatal("default scenario should relocate")
	}
	if SeasonalRelocationPropensity(ec) <= SeasonalRelocationPropensity(sw) {
		t.Error("EC (seasonal) should relocate more than SW")
	}
	if p := SeasonalRelocationPropensity(ec); p <= 0 || p >= 1 {
		t.Errorf("EC relocation prob = %v", p)
	}
	if SeasonalRelocationPropensity(nil) != 0 {
		t.Error("nil district should have zero probability")
	}
}

func TestWeekendAwayPattern(t *testing.T) {
	s := Default()
	m := census.BuildUK(1)
	inner, _ := m.CountyByName("Inner London")
	// Baseline weekends: substantial; after lockdown: nearly gone.
	base := s.WeekendAwayProb(5, inner) // Sat of week 9
	lock := s.WeekendAwayProb(40, inner)
	if base < 0.03 {
		t.Errorf("baseline weekend-away prob = %v", base)
	}
	if lock > base/4 {
		t.Errorf("lockdown weekend-away prob = %v vs baseline %v", lock, base)
	}
	// Pre-lockdown exodus weekend (21-22 Mar, days 26-27) exceeds the
	// rest of week 12.
	exodus := s.WeekendAwayProb(26, inner)
	midweek12 := s.WeekendAwayProb(23, inner)
	if exodus <= midweek12 {
		t.Error("21-22 March should show the exodus bump")
	}
	// Late-April weekend renewal.
	lateWeekend := s.WeekendAwayProb(68, inner) // Sat of week 18
	if lateWeekend <= lock {
		t.Error("weeks 18-19 weekends should recover somewhat")
	}
}

func TestExodusBias(t *testing.T) {
	s := Default()
	// 21 March (study day 26) biases East Sussex.
	if s.ExodusDestinationBias(26, "East Sussex") <= 1 {
		t.Error("East Sussex should be biased on the exodus weekend")
	}
	if s.ExodusDestinationBias(26, "Hampshire") != 1 {
		t.Error("Hampshire unbiased on the exodus weekend")
	}
	// Late-April weekends bias Hampshire and Kent.
	if s.ExodusDestinationBias(68, "Hampshire") <= 1 {
		t.Error("Hampshire should be biased on late-April weekends")
	}
	if s.ExodusDestinationBias(68, "Kent") <= 1 {
		t.Error("Kent should be biased on late-April weekends")
	}
	if s.ExodusDestinationBias(2, "East Sussex") != 1 {
		t.Error("no bias at baseline")
	}
}

func TestRelocationDestinations(t *testing.T) {
	names, weights := RelocationDestinations()
	if len(names) != len(weights) || len(names) < 8 {
		t.Fatalf("destinations: %d names, %d weights", len(names), len(weights))
	}
	if names[0] != "Hampshire" {
		t.Errorf("top destination = %s, want Hampshire (Fig. 7)", names[0])
	}
	var sum float64
	for _, w := range weights {
		if w <= 0 {
			t.Error("non-positive destination weight")
		}
		sum += w
	}
	if sum < 0.95 || sum > 1.05 {
		t.Errorf("destination weights sum to %v", sum)
	}
}

func TestNoPandemic(t *testing.T) {
	s := NoPandemic()
	if !s.null {
		t.Error("NoPandemic should be null")
	}
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d += 7 {
		if s.Activity(d) != 1 || s.VoiceFactor(d) != 1 || s.DataFactor(d) != 1 ||
			s.HomeCellularFactor(d) != 1 || s.ThrottleFactor(d) != 1 {
			t.Fatalf("null scenario factor != 1 at day %d", d)
		}
		if s.CumulativeCases(d) != 0 {
			t.Fatal("null scenario should have no cases")
		}
	}
	if s.RelocationActive(timegrid.SimDays - 1) {
		t.Error("null scenario should not relocate anyone")
	}
	if s.relocationOn() {
		t.Error("null scenario relocation should be off")
	}
	if s.ExodusDestinationBias(26, "East Sussex") != 1 {
		t.Error("null scenario should not bias destinations")
	}
}

func TestInterpClamping(t *testing.T) {
	s := Default()
	// Before the first anchor and after the last: clamped, not
	// extrapolated.
	if s.Activity(-100) != s.Activity(0) {
		t.Error("activity should clamp below the range")
	}
	if s.Activity(10_000) != s.Activity(timegrid.StudyDays+1000) {
		t.Error("activity should clamp above the range")
	}
}

// districtByCode returns m's district with the given postcode-district
// code.
func districtByCode(t *testing.T, m *census.Model, code string) *census.District {
	t.Helper()
	for i := range m.Districts {
		if m.Districts[i].Code == code {
			return &m.Districts[i]
		}
	}
	t.Fatalf("no district %q", code)
	return nil
}
