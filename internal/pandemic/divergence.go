package pandemic

import (
	"math"

	"repro/internal/timegrid"
)

// This file locates the first study day on which two scenarios can
// produce different simulated behaviour — the fork point of the
// copy-on-divergence sweep (experiments.RunSweepParallelOpts). The
// contract is conservative: DivergenceFrom may return a day earlier
// than the true divergence, never later, so simulating a shared prefix
// up to (but excluding) the returned day and forking per-scenario is
// bit-identical to running each scenario from day 0.
//
// The rule leans on two facts about how the simulators consume a
// scenario:
//
//   - Every factor query happens at an *integer* timegrid.StudyDay: the
//     mobility simulator calls RegionalActivity / WeekendAwayProb /
//     ExodusDestinationBias / RelocationActive with whole days, and the
//     traffic engine samples Activity / VoiceFactor / DataFactor /
//     HomeCellularFactor / ThrottleFactor once per day. Two scenarios
//     whose curves agree at every integer day through day d-1 are
//     therefore indistinguishable through day d-1, even if the
//     continuous curves differ between the sampling points.
//   - The remaining behavioural differences are calendar-pinned, not
//     curve-driven: the weekend-trip pattern and exodus bias depend only
//     on the null flag (first observable on the week-11 weekend), the
//     relocation wave starts on a fixed date, and the regional relax
//     bonuses apply from the week-18 window onward.
//
// CumulativeCases is deliberately excluded: the case curve feeds only
// the reporting layer (figures, SEIR comparison), never the mobility or
// traffic simulation, so two scenarios differing only in case-curve
// parameters behave identically.

// RelocationDivergenceDay returns the study day the seasonal relocation
// wave begins; scenarios that disagree on the relocation toggle diverge
// here at the latest.
func RelocationDivergenceDay() float64 { return float64(relocationStart) }

// RelaxDivergenceDay returns the first study day of the regional
// relaxation window; scenarios with different relax bonuses diverge
// here at the latest.
func RelaxDivergenceDay() float64 { return float64(relaxWindowStart) }

// nullWeekendDay is the first weekend study day whose WeekendAwayProb
// differs between the null and any non-null scenario. The formula
// depends only on the calendar and the null flag (never on curves), so
// one representative comparison locates it for every scenario pair.
var nullWeekendDay = func() float64 {
	null, cov := NoPandemic(), Default()
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		if !d.IsWeekend() {
			continue // mobsim consults the weekend pattern on weekends only
		}
		if null.WeekendAwayProb(d, nil) != cov.WeekendAwayProb(d, nil) {
			return float64(d)
		}
	}
	return math.Inf(1)
}()

// relocationOn reports whether the scenario's relocation wave can ever
// move a candidate (RelocationActive can return true on some day).
func (s *Scenario) relocationOn() bool {
	return !s.null && s.relocationScale > 0
}

// sameRelaxBonus reports whether two bonus maps are identical.
func sameRelaxBonus(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || w != v {
			return false
		}
	}
	return true
}

// factorsEqualAt reports whether every per-day factor the simulators
// consume agrees bitwise between s and o at integer study day d.
func factorsEqualAt(s, o *Scenario, d timegrid.StudyDay) bool {
	return s.Activity(d) == o.Activity(d) &&
		s.VoiceFactor(d) == o.VoiceFactor(d) &&
		s.DataFactor(d) == o.DataFactor(d) &&
		s.HomeCellularFactor(d) == o.HomeCellularFactor(d) &&
		s.ThrottleFactor(d) == o.ThrottleFactor(d)
}

// TraceEqual reports whether s and o drive the mobility simulator
// identically on every simulated day — bit-identical day traces for any
// population and seed over the whole window, even where the traffic-side
// behaviour has long diverged. The simulator consults only
// RegionalActivity, WeekendAwayProb, ExodusDestinationBias and
// RelocationActive; the latter three depend on nothing but the null
// flag and the calendar, so two non-null scenarios trace-equal iff
// their activity surfaces and relocation behaviour agree. Scenarios
// that differ only in traffic factor curves (voice, data, home
// cellular, throttle) or the case curve therefore trace-equal, and the
// copy-on-divergence sweep runs them as riders on one simulated trace
// stream instead of re-simulating identical mobility.
func (s *Scenario) TraceEqual(o *Scenario) bool {
	if s == o {
		return true
	}
	if s.null != o.null {
		return false // nullness changes the weekend/exodus/activity surfaces
	}
	if s.null {
		return true
	}
	if s.relocationScale != o.relocationScale {
		return false
	}
	if !sameRelaxBonus(s.relaxBonus, o.relaxBonus) {
		return false
	}
	// The activity surface is only ever sampled at integer study days
	// (RegionalActivity = Activity + relax bonus, clamped), so pointwise
	// agreement at the sampled days is exact, not approximate.
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		if s.Activity(d) != o.Activity(d) {
			return false
		}
	}
	return true
}

// DivergenceFrom returns the first study day on which simulating s can
// differ from simulating o — +Inf when the two scenarios are
// behaviourally identical over the whole study window. Simulated days
// strictly before the returned day are bit-identical between the two
// scenarios (same traces, same KPI records); the sweep runner uses this
// to simulate the shared prefix once and fork.
//
// The comparison is symmetric: s.DivergenceFrom(o) == o.DivergenceFrom(s).
func (s *Scenario) DivergenceFrom(o *Scenario) float64 {
	div := math.Inf(1)
	// Per-day factor curves, compared at the integer days the simulators
	// actually sample.
	for d := timegrid.StudyDay(0); d < timegrid.StudyDays; d++ {
		if !factorsEqualAt(s, o, d) {
			div = float64(d)
			break
		}
	}
	// Calendar-pinned behaviour differences.
	if s.null != o.null {
		div = math.Min(div, nullWeekendDay)
	}
	if s.relocationOn() != o.relocationOn() {
		div = math.Min(div, RelocationDivergenceDay())
	}
	if !sameRelaxBonus(s.relaxBonus, o.relaxBonus) {
		div = math.Min(div, RelaxDivergenceDay())
	}
	return div
}
