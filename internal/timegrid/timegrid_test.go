package timegrid

import (
	"testing"
	"time"
)

func TestCalendarAnchors(t *testing.T) {
	if got := StudyStart.Weekday(); got != time.Monday {
		t.Errorf("StudyStart weekday = %v, want Monday", got)
	}
	if got := StudyEnd.Weekday(); got != time.Sunday {
		t.Errorf("StudyEnd weekday = %v, want Sunday", got)
	}
	if _, w := StudyStart.ISOWeek(); w != FirstWeek {
		t.Errorf("StudyStart ISO week = %d, want %d", w, FirstWeek)
	}
	if _, w := StudyEnd.ISOWeek(); w != LastWeek {
		t.Errorf("StudyEnd ISO week = %d, want %d", w, LastWeek)
	}
	if got := int(StudyEnd.Sub(StudyStart).Hours()/24) + 1; got != StudyDays {
		t.Errorf("study window spans %d days, want %d", got, StudyDays)
	}
	if got := int(StudyStart.Sub(SimStart).Hours() / 24); got != StudyDayOffset {
		t.Errorf("study offset = %d, want %d", got, StudyDayOffset)
	}
	if got := DateOfSimDay(SimDays - 1); !got.Equal(StudyEnd) {
		t.Errorf("last sim day = %v, want %v", got, StudyEnd)
	}
}

func TestInterventionDates(t *testing.T) {
	cases := []struct {
		name string
		day  StudyDay
		date string
		week Week
	}{
		{"pandemic declared", PandemicDeclared, "2020-03-11", 11},
		{"WFH advice", WorkFromHomeAdvice, "2020-03-16", 12},
		{"venue closures", VenueClosures, "2020-03-20", 12},
		{"lockdown", LockdownStart, "2020-03-23", 13},
	}
	for _, c := range cases {
		if got := DateOfStudyDay(c.day).Format("2006-01-02"); got != c.date {
			t.Errorf("%s: date = %s, want %s", c.name, got, c.date)
		}
		if got := c.day.Week(); got != c.week {
			t.Errorf("%s: week = %d, want %d", c.name, got, c.week)
		}
	}
}

func TestSimStudyDayRoundTrip(t *testing.T) {
	for d := SimDay(0); d < SimDays; d++ {
		sd, ok := d.ToStudyDay()
		if int(d) < StudyDayOffset {
			if ok {
				t.Fatalf("sim day %d should be outside study window", d)
			}
			continue
		}
		if !ok {
			t.Fatalf("sim day %d should be inside study window", d)
		}
		if back := sd.ToSimDay(); back != d {
			t.Fatalf("round trip %d -> %d -> %d", d, sd, back)
		}
	}
}

func TestStudyDayOfAndDateOf(t *testing.T) {
	for d := StudyDay(0); d < StudyDays; d++ {
		got, ok := StudyDayOf(DateOfStudyDay(d))
		if !ok || got != d {
			t.Fatalf("StudyDayOf(DateOfStudyDay(%d)) = %d, %v", d, got, ok)
		}
	}
	if _, ok := StudyDayOf(SimStart); ok {
		t.Error("1 Feb should be outside the study window")
	}
}

func TestWeeks(t *testing.T) {
	ws := Weeks()
	if len(ws) != StudyWeeks {
		t.Fatalf("Weeks() returned %d, want %d", len(ws), StudyWeeks)
	}
	total := 0
	for _, w := range ws {
		days := w.Days()
		total += len(days)
		for _, d := range days {
			if d.Week() != w {
				t.Errorf("day %d assigned to week %d, expected %d", d, d.Week(), w)
			}
		}
	}
	if total != StudyDays {
		t.Errorf("weeks cover %d days, want %d", total, StudyDays)
	}
	if Week(8).Days() != nil {
		t.Error("invalid week should have no days")
	}
}

func TestWeekends(t *testing.T) {
	// 29 Feb 2020 was a Saturday: sim day 28, study day 5.
	if !(SimDay(28)).IsWeekend() {
		t.Error("29 Feb 2020 should be a weekend")
	}
	if !(StudyDay(5)).IsWeekend() {
		t.Error("study day 5 (Sat 29 Feb) should be a weekend")
	}
	if (StudyDay(0)).IsWeekend() {
		t.Error("study day 0 (Mon 24 Feb) should not be a weekend")
	}
	// Exactly 22 weekend days in 11 full weeks.
	n := 0
	for d := StudyDay(0); d < StudyDays; d++ {
		if d.IsWeekend() {
			n++
		}
	}
	if n != 22 {
		t.Errorf("%d weekend study days, want 22", n)
	}
}

func TestBins(t *testing.T) {
	for h := 0; h < HoursPerDay; h++ {
		b := Bin(h / BinHours)
		s, e := b.Hours()
		if h < s || h >= e {
			t.Errorf("hour %d outside bin bounds [%d, %d)", h, s, e)
		}
	}
	if got := Bin(1).String(); got != "04:00-08:00" {
		t.Errorf("Bin(1) = %q", got)
	}
	if got := Bin(5).String(); got != "20:00-00:00" {
		t.Errorf("Bin(5) = %q", got)
	}
}

func TestPhases(t *testing.T) {
	if got := PhaseOf(0); got != PhaseBaseline {
		t.Errorf("day 0 phase = %v", got)
	}
	if got := PhaseOf(PandemicDeclared); got != PhasePandemic {
		t.Errorf("declaration day phase = %v", got)
	}
	if got := PhaseOf(WorkFromHomeAdvice); got != PhaseTransition {
		t.Errorf("WFH day phase = %v", got)
	}
	if got := PhaseOf(LockdownStart); got != PhaseLockdown {
		t.Errorf("lockdown day phase = %v", got)
	}
	if got := PhaseOf(StudyDays - 1); got != PhaseRelaxation {
		t.Errorf("last day phase = %v", got)
	}
	// Phases are monotone in time.
	prev := PhaseBaseline
	for d := StudyDay(0); d < StudyDays; d++ {
		p := PhaseOf(d)
		if p < prev {
			t.Fatalf("phase regressed at day %d: %v after %v", d, p, prev)
		}
		prev = p
	}
}

func TestMustStudyDayOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-window date")
		}
	}()
	MustStudyDayOf(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC))
}
