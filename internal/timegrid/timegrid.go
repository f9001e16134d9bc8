// Package timegrid defines the study calendar used throughout the
// reproduction: the simulated period (1 February – 10 May 2020), the ISO
// week numbering the paper refers to (week 9 … week 19 of 2020), the
// hourly grid and the six disjoint 4-hour bins over which mobility
// statistics are aggregated, and the key dates of the UK intervention
// timeline.
//
// All times are UTC. Days are indexed two ways:
//
//   - SimDay: 0-based index from the simulation start (1 Feb 2020), which
//     includes the February home-detection window.
//   - StudyDay: 0-based index from the study start (Mon 24 Feb 2020, the
//     first day of ISO week 9), spanning the 77 days of weeks 9–19 that
//     every figure in the paper covers.
package timegrid

import (
	"fmt"
	"time"
)

// Calendar anchors. The paper's analysis window is weeks 9–19 of 2020 with
// week 9 as the pre-pandemic baseline; February is simulated additionally
// because the home-detection algorithm (§2.3) requires ≥14 nights observed
// "during February 2020".
var (
	// SimStart is the first simulated instant: 00:00 UTC, 1 Feb 2020.
	SimStart = time.Date(2020, time.February, 1, 0, 0, 0, 0, time.UTC)
	// StudyStart is the first day of ISO week 9 of 2020 (Mon 24 Feb).
	StudyStart = time.Date(2020, time.February, 24, 0, 0, 0, 0, time.UTC)
	// StudyEnd is the last day of ISO week 19 of 2020 (Sun 10 May).
	StudyEnd = time.Date(2020, time.May, 10, 0, 0, 0, 0, time.UTC)
)

// Sizes of the simulated grids.
const (
	// SimDays is the total number of simulated days (1 Feb – 10 May 2020,
	// inclusive; 2020 is a leap year).
	SimDays = 100
	// StudyDays is the number of days in the analysis window
	// (weeks 9–19, Mon 24 Feb – Sun 10 May 2020).
	StudyDays = 77
	// StudyDayOffset is the SimDay index of the first study day.
	StudyDayOffset = 23
	// FebruaryDays is the length of the home-detection window.
	FebruaryDays = 29
	// HoursPerDay is the hourly KPI grid resolution.
	HoursPerDay = 24
	// BinsPerDay is the number of disjoint 4-hour mobility bins per day
	// (§2.3: e.g. 04:00–08:00, 08:00–12:00, 12:00–16:00, …).
	BinsPerDay = 6
	// BinHours is the width of one mobility bin.
	BinHours = 4
	// FirstWeek and LastWeek bound the paper's week numbering.
	FirstWeek = 9
	LastWeek  = 19
	// StudyWeeks is the number of analysed weeks.
	StudyWeeks = LastWeek - FirstWeek + 1
	// BaselineWeek is the reference week for all delta-variation series.
	BaselineWeek = 9
)

// Key intervention dates of the UK COVID-19 timeline (§1), expressed as
// StudyDay indices. All fall within the study window.
var (
	// PandemicDeclared is 11 Mar 2020 (week 11): WHO declares a pandemic.
	PandemicDeclared = MustStudyDayOf(time.Date(2020, time.March, 11, 0, 0, 0, 0, time.UTC))
	// WorkFromHomeAdvice is 16 Mar 2020 (week 12): government recommends
	// working from home.
	WorkFromHomeAdvice = MustStudyDayOf(time.Date(2020, time.March, 16, 0, 0, 0, 0, time.UTC))
	// VenueClosures is 20 Mar 2020 (week 12): closure of schools,
	// restaurants, bars, gyms and sporting events.
	VenueClosures = MustStudyDayOf(time.Date(2020, time.March, 20, 0, 0, 0, 0, time.UTC))
	// LockdownStart is 23 Mar 2020 (week 13): nationwide stay-at-home
	// order.
	LockdownStart = MustStudyDayOf(time.Date(2020, time.March, 23, 0, 0, 0, 0, time.UTC))
)

// SimDay is a 0-based day index from SimStart (1 Feb 2020).
type SimDay int

// StudyDay is a 0-based day index from StudyStart (Mon 24 Feb 2020).
type StudyDay int

// Week is a week number of 2020 using the paper's (ISO) numbering.
type Week int

// Bin identifies one of the six disjoint 4-hour mobility bins of a day:
// bin 0 is 00:00–04:00, bin 1 is 04:00–08:00, and so on.
type Bin int

// DateOfSimDay returns the calendar date (midnight UTC) of a simulated day.
func DateOfSimDay(d SimDay) time.Time {
	return SimStart.AddDate(0, 0, int(d))
}

// DateOfStudyDay returns the calendar date (midnight UTC) of a study day.
func DateOfStudyDay(d StudyDay) time.Time {
	return StudyStart.AddDate(0, 0, int(d))
}

// StudyDayOf returns the StudyDay index of a date, and whether the date
// lies inside the study window (weeks 9–19).
func StudyDayOf(t time.Time) (StudyDay, bool) {
	d := int(t.Truncate(24*time.Hour).Sub(StudyStart).Hours() / 24)
	if d < 0 || d >= StudyDays {
		return 0, false
	}
	return StudyDay(d), true
}

// MustStudyDayOf is StudyDayOf for dates known to be inside the window;
// it panics otherwise. It is used for package-level constants.
func MustStudyDayOf(t time.Time) StudyDay {
	d, ok := StudyDayOf(t)
	if !ok {
		panic(fmt.Sprintf("timegrid: %s outside study window", t.Format("2006-01-02")))
	}
	return d
}

// ToStudyDay converts a SimDay to a StudyDay, reporting whether the day is
// inside the study window.
func (d SimDay) ToStudyDay() (StudyDay, bool) {
	s := int(d) - StudyDayOffset
	if s < 0 || s >= StudyDays {
		return 0, false
	}
	return StudyDay(s), true
}

// ToSimDay converts a StudyDay to its SimDay index.
func (d StudyDay) ToSimDay() SimDay { return SimDay(int(d) + StudyDayOffset) }

// Week returns the paper's week number for a study day. Study day 0 is the
// Monday of week 9, so weeks advance every 7 days.
func (d StudyDay) Week() Week { return Week(FirstWeek + int(d)/7) }

// Weekday returns the weekday of a study day.
func (d StudyDay) Weekday() time.Weekday { return DateOfStudyDay(d).Weekday() }

// IsWeekend reports whether the study day is a Saturday or Sunday.
func (d StudyDay) IsWeekend() bool {
	wd := d.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// IsWeekend reports whether the simulated day is a Saturday or Sunday.
func (d SimDay) IsWeekend() bool {
	wd := DateOfSimDay(d).Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// InFebruary reports whether the simulated day falls in the February 2020
// home-detection window.
func (d SimDay) InFebruary() bool { return int(d) < FebruaryDays }

// Days returns the StudyDay indices belonging to the week, clipped to the
// study window.
func (w Week) Days() []StudyDay {
	if w < FirstWeek || w > LastWeek {
		return nil
	}
	start := (int(w) - FirstWeek) * 7
	days := make([]StudyDay, 0, 7)
	for i := 0; i < 7; i++ {
		d := start + i
		if d >= StudyDays {
			break
		}
		days = append(days, StudyDay(d))
	}
	return days
}

// Index returns the 0-based index of the week within the study window.
func (w Week) Index() int { return int(w) - FirstWeek }

// Weeks returns all analysed weeks in order (9 … 19).
func Weeks() []Week {
	ws := make([]Week, 0, StudyWeeks)
	for w := Week(FirstWeek); w <= LastWeek; w++ {
		ws = append(ws, w)
	}
	return ws
}

// Hours returns the first and one-past-last hour covered by the bin.
func (b Bin) Hours() (start, end int) { return int(b) * BinHours, (int(b) + 1) * BinHours }

// String implements fmt.Stringer ("04:00-08:00" style).
func (b Bin) String() string {
	s, e := b.Hours()
	return fmt.Sprintf("%02d:00-%02d:00", s, e%24)
}

// Phase describes where a study day sits relative to the intervention
// timeline; it is used by the behaviour model and by phase-split analyses
// (e.g. the Fig. 4 correlation by phase).
type Phase int

// Phases of the UK timeline, in chronological order.
const (
	PhaseBaseline   Phase = iota // before the pandemic declaration
	PhasePandemic                // declaration → WFH advice
	PhaseTransition              // WFH advice → lockdown order
	PhaseLockdown                // lockdown → relaxation onset (week 15)
	PhaseRelaxation              // week 15 onward
)

// relaxationOnset is the first day of week 15, when the paper observes
// mobility "slightly increases … despite the lockdown still being
// enforced" (§3.1).
var relaxationOnset = StudyDay((15 - FirstWeek) * 7)

// PhaseOf returns the timeline phase of a study day.
func PhaseOf(d StudyDay) Phase {
	switch {
	case d < PandemicDeclared:
		return PhaseBaseline
	case d < WorkFromHomeAdvice:
		return PhasePandemic
	case d < LockdownStart:
		return PhaseTransition
	case d < relaxationOnset:
		return PhaseLockdown
	default:
		return PhaseRelaxation
	}
}
