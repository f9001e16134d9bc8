// Package pandemic encodes the UK COVID-19 timeline of early 2020 and the
// population's behavioural response to it: the scenario that drives the
// mobility and traffic simulators.
//
// The paper measures the *consequences* of this behaviour on a real
// network; here the behaviour itself is the model input. The scenario is
// expressed as smooth daily factors (activity level, voice demand, WiFi
// offload, content throttling) anchored at the documented intervention
// dates — WHO pandemic declaration (11 Mar, week 11), work-from-home
// advice (16 Mar, week 12), venue closures (20 Mar, week 12), and the
// national lockdown (23 Mar, week 13) — plus the regional differences and
// the Inner-London relocation wave §3 reports. Everything downstream
// (gyration, entropy, KPIs) *emerges* from simulating agents under these
// factors; no figure value is hard-coded.
package pandemic

import (
	"math"

	"repro/internal/census"
	"repro/internal/timegrid"
)

// Scenario is a full behavioural scenario. The zero value is not useful;
// use Default (the calibrated COVID scenario), NoPandemic (a null
// scenario for ablations), a Builder (custom timelines), or FromSnapshot
// (declarative specs — see internal/scenario).
type Scenario struct {
	// activity anchors: piecewise-linear national out-of-home activity
	// level by study day, 1.0 = pre-pandemic normal.
	activityAnchors []anchor
	// voice anchors: per-user conversational voice demand multiplier.
	voiceAnchors []anchor
	// dataDemand anchors: per-user cellular data appetite multiplier
	// (captures the small week-10 news-driven surge).
	dataAnchors []anchor
	// wifiOffload anchors: fraction of at-home data demand kept on
	// cellular (1.0 = all of the usual share; lower = more WiFi).
	homeCellularAnchors []anchor
	// throttle anchors: per-user application-level throughput cap factor
	// (content providers reduced streaming quality from mid-March).
	throttleAnchors []anchor

	// relaxation bonuses applied to specific counties late in the window
	// (weeks 18–19: London and West Yorkshire relax; Greater Manchester
	// and West Midlands do not — §3.2).
	relaxBonus map[string]float64

	// caseCurve parameters (logistic cumulative confirmed cases).
	caseL, caseK float64
	caseMid      float64 // study day of the logistic midpoint

	// relocationScale is the scenario's relocation toggle: 1 when
	// seasonal residents relocate for the lockdown (the default
	// scenario), 0 when a Builder scenario opts out. Population
	// synthesis marks relocation *candidates* scenario-free
	// (SeasonalRelocationPropensity); this toggle, via
	// RelocationActive, decides whether the move ever happens.
	relocationScale float64

	null bool // NoPandemic scenario
}

// anchor is a (study day, value) control point.
type anchor struct {
	day   float64
	value float64
}

// interp evaluates the piecewise-linear curve at day d, clamping outside
// the anchor range.
func interp(anchors []anchor, d float64) float64 {
	if len(anchors) == 0 {
		return 1
	}
	if d <= anchors[0].day {
		return anchors[0].value
	}
	last := anchors[len(anchors)-1]
	if d >= last.day {
		return last.value
	}
	for i := 1; i < len(anchors); i++ {
		if d <= anchors[i].day {
			a, b := anchors[i-1], anchors[i]
			f := (d - a.day) / (b.day - a.day)
			return a.value + f*(b.value-a.value)
		}
	}
	return last.value
}

// day converts a calendar milestone to float for anchor building.
func dayf(d timegrid.StudyDay) float64 { return float64(d) }

// Default returns the calibrated COVID-19 scenario reproducing the UK
// timeline of the paper.
func Default() *Scenario {
	decl := dayf(timegrid.PandemicDeclared)  // 11 Mar
	wfh := dayf(timegrid.WorkFromHomeAdvice) // 16 Mar
	closures := dayf(timegrid.VenueClosures) // 20 Mar
	lockdown := dayf(timegrid.LockdownStart) // 23 Mar
	endW13 := dayf(timegrid.LockdownStart) + 6
	return &Scenario{
		activityAnchors: []anchor{
			{0, 1.00},        // week 9 baseline
			{decl, 0.97},     // distancing advice begins
			{wfh, 0.74},      // WFH recommendation (week 12: −20% gyration)
			{closures, 0.56}, // venues close
			{lockdown, 0.54}, // stay-at-home order
			{endW13, 0.44},   // steep drop through week 13 (−50% gyration)
			{41, 0.42},       // week 14 trough
			{48, 0.44},       // week 15: slight relaxation despite lockdown
			{62, 0.44},       // week 17
			{76, 0.44},       // week 19 (regional bonuses add the rebound)
		},
		voiceAnchors: []anchor{
			{0, 1.00},
			{6, 1.05},  // the call surge starts with week 10
			{8, 1.52},  // early week 10: interconnect pressure begins
			{13, 1.72}, // end week 10
			{20, 2.00}, // week 11
			{wfh, 2.15},
			{closures, 2.40},     // week 12 spike (+140%)
			{lockdown + 2, 2.50}, // peak ≈ +150% right after lockdown
			{41, 2.25},
			{55, 2.00},
			{76, 1.80},
		},
		dataAnchors: []anchor{
			{0, 1.00},
			{7, 1.10},  // week 10: +8% DL volume (news, uncertainty)
			{14, 1.06}, // week 11
			{closures, 1.00},
			{lockdown, 0.97},
			{76, 0.95},
		},
		homeCellularAnchors: []anchor{
			{0, 1.00},
			{wfh, 0.90},
			{lockdown, 0.78}, // confinement pushes data to residential WiFi
			{41, 0.74},
			{76, 0.76},
		},
		throttleAnchors: []anchor{
			{0, 1.00},
			{closures - 1, 1.00},
			{closures, 0.92}, // content providers reduce streaming quality
			{lockdown, 0.895},
			{76, 0.90},
		},
		relaxBonus: map[string]float64{
			"Inner London":   0.16,
			"Outer London":   0.14,
			"West Yorkshire": 0.16,
		},
		caseL:           200_000, // UK cumulative lab-confirmed cases plateau scale
		caseK:           0.18,    // ≈1,000 cases at the 11 March declaration
		caseMid:         45,      // early April midpoint
		relocationScale: 1,
	}
}

// NoPandemic returns the null scenario: all factors pinned at their
// baseline values. It is used for ablations and differential tests.
func NoPandemic() *Scenario { return &Scenario{null: true} }

// relaxWindowStart is the first day of week 18, when the paper observes
// regional differences in how restrictions are relaxed.
var relaxWindowStart = timegrid.StudyDay((18 - timegrid.FirstWeek) * 7)

// Activity returns the national out-of-home activity level for a study
// day (1.0 = pre-pandemic).
func (s *Scenario) Activity(d timegrid.StudyDay) float64 {
	if s.null {
		return 1
	}
	return interp(s.activityAnchors, float64(d))
}

// RegionalActivity returns the activity level for residents of the given
// county, applying the late-window regional relaxation bonuses.
func (s *Scenario) RegionalActivity(d timegrid.StudyDay, county *census.County) float64 {
	a := s.Activity(d)
	if s.null || county == nil {
		return a
	}
	if d >= relaxWindowStart {
		if bonus, ok := s.relaxBonus[county.Name]; ok {
			a += bonus
		}
	}
	if a > 1 {
		a = 1
	}
	return a
}

// VoiceFactor returns the per-user conversational voice demand multiplier
// for a study day.
func (s *Scenario) VoiceFactor(d timegrid.StudyDay) float64 {
	if s.null {
		return 1
	}
	return interp(s.voiceAnchors, float64(d))
}

// DataFactor returns the per-user cellular data appetite multiplier.
func (s *Scenario) DataFactor(d timegrid.StudyDay) float64 {
	if s.null {
		return 1
	}
	return interp(s.dataAnchors, float64(d))
}

// HomeCellularFactor returns the fraction of the usual at-home cellular
// data demand that stays on cellular (the rest offloads to WiFi).
func (s *Scenario) HomeCellularFactor(d timegrid.StudyDay) float64 {
	if s.null {
		return 1
	}
	return interp(s.homeCellularAnchors, float64(d))
}

// ThrottleFactor returns the application-level per-user throughput cap
// factor (content quality reduction).
func (s *Scenario) ThrottleFactor(d timegrid.StudyDay) float64 {
	if s.null {
		return 1
	}
	return interp(s.throttleAnchors, float64(d))
}

// CumulativeCases returns the cumulative number of lab-confirmed
// SARS-CoV-2 cases on a study day (logistic curve calibrated so that
// ~1,000 cases coincide with the pandemic declaration, as in Fig. 4).
func (s *Scenario) CumulativeCases(d timegrid.StudyDay) float64 {
	if s.null {
		return 0
	}
	x := float64(d)
	return s.caseL / (1 + math.Exp(-s.caseK*(x-s.caseMid)))
}

// --- Relocation and trip special-casing (§3.4) ---

// relocationStart is 19 Mar 2020: schools closed on the 20th and the
// paper attributes part of the Inner-London population drop to students
// and long-term tourists leaving around that date.
var relocationStart = timegrid.MustStudyDayOf(timegrid.DateOfStudyDay(0).AddDate(0, 0, 24)) // 19 Mar

// RelocationActive reports whether, on the given simulated day, seasonal
// residents who decided to relocate are away from their primary home. It
// is always false for scenarios whose relocation toggle is off.
func (s *Scenario) RelocationActive(d timegrid.SimDay) bool {
	if s.null || s.relocationScale <= 0 {
		return false
	}
	sd, ok := d.ToStudyDay()
	if !ok {
		return false
	}
	return sd >= relocationStart
}

// WeekendAwayProb returns the probability that a resident of the county
// spends a weekend day in another county. The paper observes Londoners'
// weekend trips vanish starting weeks 11–12, with an extra pre-lockdown
// exodus on 21–22 March and renewed Hampshire/Kent weekends late April.
func (s *Scenario) WeekendAwayProb(d timegrid.StudyDay, county *census.County) float64 {
	base := 0.03
	if county != nil && (county.Kind == census.KindMetroCore || county.Kind == census.KindMetroSuburb) {
		base = 0.06 // city dwellers take more weekends away
	}
	if s.null {
		return base
	}
	w := d.Week()
	switch {
	case w <= 10:
		return base
	case w == 11:
		return base * 0.6
	case w == 12:
		// 21–22 March (the weekend before lockdown): a brief exodus
		// towards coastal counties.
		if d.IsWeekend() {
			return base * 1.4
		}
		return base * 0.25
	default:
		p := base * 0.07
		// Renewed weekend trips by the end of April (weeks 18–19).
		if w >= 18 && d.IsWeekend() {
			p = base * 0.35
		}
		return p
	}
}

// relocationDest weights the destination counties of Inner-London
// relocations and weekend trips, matching the top receiving counties of
// Fig. 7 (Hampshire first, then the home counties and the south coast).
var relocationDest = []struct {
	county string
	weight float64
}{
	{"Hampshire", 0.28},
	{"Kent", 0.14},
	{"Essex", 0.10},
	{"Surrey", 0.10},
	{"Hertfordshire", 0.08},
	{"Oxfordshire", 0.07},
	{"Berkshire", 0.06},
	{"Cambridgeshire", 0.06},
	{"East Sussex", 0.06},
	{"Outer London", 0.05},
}

// RelocationDestinations returns the destination county names and weights
// for trips/relocations out of London.
func RelocationDestinations() (names []string, weights []float64) {
	names = make([]string, len(relocationDest))
	weights = make([]float64, len(relocationDest))
	for i, rd := range relocationDest {
		names[i] = rd.county
		weights[i] = rd.weight
	}
	return names, weights
}

// ExodusDestinationBias returns a multiplicative bias on destination
// weights for a given study day: the 21–22 March weekend is biased
// towards East Sussex (the paper's observed spike), and late-April
// weekends towards Hampshire and Kent.
func (s *Scenario) ExodusDestinationBias(d timegrid.StudyDay, destCounty string) float64 {
	if s.null {
		return 1
	}
	w := d.Week()
	if w == 12 && d.IsWeekend() && destCounty == "East Sussex" {
		return 5.0
	}
	if w >= 18 && d.IsWeekend() {
		switch destCounty {
		case "Hampshire":
			return 2.5
		case "Kent":
			return 1.5
		}
	}
	return 1
}

// SeasonalRelocationPropensity returns the scenario-free probability
// that a *seasonal* resident of the district is a relocation candidate:
// a student, long-term tourist or second-home owner who would leave for
// the lockdown. It is calibrated so that ≈10% of Inner London residents
// are absent from week 13 onward (§3.4), given the district seasonal
// shares in the census model. Population synthesis draws candidates from
// this propensity; whether they actually move is the scenario's call
// (RelocationActive).
func SeasonalRelocationPropensity(d *census.District) float64 {
	if d == nil {
		return 0
	}
	return 0.80 * d.SeasonalShare
}
