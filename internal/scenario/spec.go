// Package scenario provides a declarative, JSON-serializable scenario
// format on top of pandemic.Scenario, plus a registry of named
// built-ins. A Spec holds the full definition of a behavioural scenario
// — anchor curves, regional relaxation bonuses, case-curve parameters
// and the relocation toggle — and round-trips losslessly:
//
//	spec → JSON → Spec → pandemic.Scenario
//
// reproduces bit-identical daily factors (the JSON encoder emits
// shortest round-trip float representations, and the pandemic.Builder
// preserves anchors verbatim). The registry's "default-covid" entry is
// the calibrated timeline of the paper: loading it from JSON produces
// results bit-identical to pandemic.Default().
//
// Specs are how the cmd layer names scenarios (-scenario flag, sweep
// sets): a flag value resolves to either a registry name or a .json
// file written in this schema (see SCENARIOS.md).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/pandemic"
	"repro/internal/timegrid"
)

// Point is one (study day, value) control point of a factor curve. Day
// may be fractional; 0 is the first study day (24 Feb 2020, week 9).
type Point struct {
	Day   float64 `json:"day"`
	Value float64 `json:"value"`
}

// Curve is a piecewise-linear factor curve over the study window,
// clamped outside its anchor range. An empty curve is flat at 1.0.
type Curve []Point

// Eval evaluates the curve at a study day, with the same semantics as
// the pandemic package's interpolation (clamp outside the anchors).
func (c Curve) Eval(day float64) float64 {
	if len(c) == 0 {
		return 1
	}
	if day <= c[0].Day {
		return c[0].Value
	}
	last := c[len(c)-1]
	if day >= last.Day {
		return last.Value
	}
	for i := 1; i < len(c); i++ {
		if day <= c[i].Day {
			a, b := c[i-1], c[i]
			f := (day - a.Day) / (b.Day - a.Day)
			return a.Value + f*(b.Value-a.Value)
		}
	}
	return last.Value
}

// CaseCurve parameterizes the logistic cumulative confirmed-case curve.
type CaseCurve struct {
	Plateau float64 `json:"plateau"`
	Growth  float64 `json:"growth"`
	MidDay  float64 `json:"mid_day"`
}

// Spec is the declarative form of a behavioural scenario.
type Spec struct {
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`

	// Null marks the no-pandemic scenario: every factor pinned at
	// baseline, no relocation, no weekend-pattern changes. All other
	// behavioural fields must be empty.
	Null bool `json:"null,omitempty"`

	Activity     Curve `json:"activity,omitempty"`
	Voice        Curve `json:"voice,omitempty"`
	Data         Curve `json:"data,omitempty"`
	HomeCellular Curve `json:"home_cellular,omitempty"`
	Throttle     Curve `json:"throttle,omitempty"`

	// RelaxBonus grants counties a late-window (week 18+) activity
	// bonus, keyed by county name.
	RelaxBonus map[string]float64 `json:"relax_bonus,omitempty"`

	CaseCurve *CaseCurve `json:"case_curve,omitempty"`

	// Relocation toggles the Inner-London style seasonal-resident
	// relocation wave.
	Relocation bool `json:"relocation,omitempty"`
}

// Scenario compiles the spec into a pandemic.Scenario through the
// Builder, inheriting its validation (anchor windows, non-negative
// values, bonus bounds).
func (sp Spec) Scenario() (*pandemic.Scenario, error) {
	sn := pandemic.Snapshot{
		Null:         sp.Null,
		Activity:     points(sp.Activity),
		Voice:        points(sp.Voice),
		Data:         points(sp.Data),
		HomeCellular: points(sp.HomeCellular),
		Throttle:     points(sp.Throttle),
		RelaxBonus:   sp.RelaxBonus,
		Relocation:   sp.Relocation,
	}
	if sp.CaseCurve != nil {
		sn.CasePlateau = sp.CaseCurve.Plateau
		sn.CaseGrowth = sp.CaseCurve.Growth
		sn.CaseMidDay = sp.CaseCurve.MidDay
	}
	s, err := pandemic.FromSnapshot(sn)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sp.Name, err)
	}
	return s, nil
}

// FromScenario snapshots a scenario into a named spec. The result
// round-trips: FromScenario(...).Scenario() reproduces bit-identical
// daily factors.
func FromScenario(name, description string, s *pandemic.Scenario) Spec {
	sn := s.Snapshot()
	sp := Spec{
		Name:         name,
		Description:  description,
		Null:         sn.Null,
		Activity:     curve(sn.Activity),
		Voice:        curve(sn.Voice),
		Data:         curve(sn.Data),
		HomeCellular: curve(sn.HomeCellular),
		Throttle:     curve(sn.Throttle),
		RelaxBonus:   sn.RelaxBonus,
		Relocation:   sn.Relocation,
	}
	if !sn.Null {
		sp.CaseCurve = &CaseCurve{Plateau: sn.CasePlateau, Growth: sn.CaseGrowth, MidDay: sn.CaseMidDay}
	}
	return sp
}

func points(c Curve) []pandemic.AnchorPoint {
	if len(c) == 0 {
		return nil
	}
	out := make([]pandemic.AnchorPoint, len(c))
	for i, p := range c {
		out[i] = pandemic.AnchorPoint{Day: p.Day, Value: p.Value}
	}
	return out
}

func curve(pts []pandemic.AnchorPoint) Curve {
	if len(pts) == 0 {
		return nil
	}
	out := make(Curve, len(pts))
	for i, p := range pts {
		out[i] = Point{Day: p.Day, Value: p.Value}
	}
	return out
}

// Parse decodes a JSON spec, rejecting unknown fields so typos in
// hand-written files fail loudly instead of silently flattening a
// curve.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if sp.Null && (len(sp.Activity)+len(sp.Voice)+len(sp.Data)+len(sp.HomeCellular)+len(sp.Throttle)+len(sp.RelaxBonus) > 0 || sp.CaseCurve != nil || sp.Relocation) {
		return Spec{}, fmt.Errorf("scenario %q: null scenarios must not define curves, bonuses, a case curve or relocation", sp.Name)
	}
	return sp, nil
}

// ReadFile loads a spec from a JSON file.
func ReadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	sp, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// lastStudyDay is the final evaluable day of the study window.
const lastStudyDay = float64(timegrid.StudyDays - 1)

// Shifted returns a copy of the spec with its anchor curves and
// case-curve midpoint moved by delta days (negative = earlier, positive
// = later). Curves are resampled at the window edges — the shifted
// curve evaluates to the original curve at (day − delta), clamped into
// the study window.
//
// Only the spec's own timeline shifts: the calendar-pinned behavioural
// windows hard-coded in the pandemic package (the 19 March relocation
// start, the week-12 exodus weekend, the week-18 regional relax window
// and the weekly weekend-trip pattern) stay where the paper observed
// them. A shifted counterfactual therefore answers "what if demand and
// activity had moved earlier/later against the same calendar", not
// "what if the entire calendar had moved".
func Shifted(sp Spec, delta float64) Spec {
	out := sp
	out.Activity = shiftCurve(sp.Activity, delta)
	out.Voice = shiftCurve(sp.Voice, delta)
	out.Data = shiftCurve(sp.Data, delta)
	out.HomeCellular = shiftCurve(sp.HomeCellular, delta)
	out.Throttle = shiftCurve(sp.Throttle, delta)
	if sp.CaseCurve != nil {
		cc := *sp.CaseCurve
		cc.MidDay += delta
		out.CaseCurve = &cc
	}
	return out
}

// shiftCurve translates a curve in time and re-anchors it to the study
// window: anchors pushed outside [0, lastStudyDay] are dropped, and
// boundary anchors are added so the kept range still evaluates to the
// translated original.
func shiftCurve(c Curve, delta float64) Curve {
	if len(c) == 0 {
		return nil
	}
	var out Curve
	for _, p := range c {
		d := p.Day + delta
		if d < 0 || d > lastStudyDay {
			continue
		}
		out = append(out, Point{Day: d, Value: p.Value})
	}
	if len(out) == 0 || out[0].Day > 0 {
		out = append(Curve{{Day: 0, Value: c.Eval(-delta)}}, out...)
	}
	if last := out[len(out)-1]; last.Day < lastStudyDay {
		out = append(out, Point{Day: lastStudyDay, Value: c.Eval(lastStudyDay - delta)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}
