package pandemic

import (
	"fmt"
	"sort"

	"repro/internal/timegrid"
)

// Builder constructs custom behavioural scenarios: alternative lockdown
// timings, different compliance levels, counterfactual voice surges.
// All curves start from flat baselines (factor 1.0 at day 0); anchors
// added out of order are sorted at Build time.
//
//	scen, err := pandemic.NewBuilder().
//	    Activity(0, 1.0).
//	    Activity(14, 0.5).   // a lockdown two weeks earlier
//	    Activity(76, 0.6).
//	    Voice(14, 2.0).
//	    Build()
type Builder struct {
	activity, voice, data, homeCellular, throttle []anchor
	relax                                         map[string]float64
	caseL, caseK, caseMid                         float64
	relocation                                    bool
	err                                           error
}

// NewBuilder returns a builder whose unset curves stay at baseline.
func NewBuilder() *Builder {
	return &Builder{
		relax:   map[string]float64{},
		caseL:   0,
		caseK:   0.18,
		caseMid: 45,
	}
}

// addAnchor validates and appends one whole-day control point.
func (b *Builder) addAnchor(curve *[]anchor, day timegrid.StudyDay, value float64, name string) *Builder {
	return b.addAnchorAt(curve, float64(day), value, name)
}

// addAnchorAt validates and appends one control point at a possibly
// fractional study day.
func (b *Builder) addAnchorAt(curve *[]anchor, day, value float64, name string) *Builder {
	if b.err != nil {
		return b
	}
	if day < 0 || day >= timegrid.StudyDays {
		b.err = fmt.Errorf("pandemic: %s anchor day %v outside the study window", name, day)
		return b
	}
	if value < 0 {
		b.err = fmt.Errorf("pandemic: %s anchor value %v negative", name, value)
		return b
	}
	*curve = append(*curve, anchor{day: day, value: value})
	return b
}

// Curve names accepted by AnchorAt, one per factor curve of a Scenario.
const (
	CurveActivity     = "activity"
	CurveVoice        = "voice"
	CurveData         = "data"
	CurveHomeCellular = "home-cellular"
	CurveThrottle     = "throttle"
)

// AnchorAt adds a control point to the curve named by one of the Curve*
// constants, at a possibly fractional study day. It is the declarative
// entry point used by spec-driven construction (internal/scenario); the
// typed methods below are equivalent for whole days.
func (b *Builder) AnchorAt(curve string, day, value float64) *Builder {
	if b.err != nil {
		return b
	}
	var c *[]anchor
	switch curve {
	case CurveActivity:
		c = &b.activity
	case CurveVoice:
		c = &b.voice
	case CurveData:
		c = &b.data
	case CurveHomeCellular:
		c = &b.homeCellular
	case CurveThrottle:
		c = &b.throttle
	default:
		b.err = fmt.Errorf("pandemic: unknown curve %q", curve)
		return b
	}
	return b.addAnchorAt(c, day, value, curve)
}

// Activity adds an out-of-home activity anchor (1.0 = normal).
func (b *Builder) Activity(day timegrid.StudyDay, level float64) *Builder {
	return b.addAnchor(&b.activity, day, level, "activity")
}

// Voice adds a voice-demand anchor (1.0 = normal).
func (b *Builder) Voice(day timegrid.StudyDay, factor float64) *Builder {
	return b.addAnchor(&b.voice, day, factor, "voice")
}

// HomeCellular adds a WiFi-offload anchor (1.0 = the usual cellular
// share of at-home demand).
func (b *Builder) HomeCellular(day timegrid.StudyDay, factor float64) *Builder {
	return b.addAnchor(&b.homeCellular, day, factor, "home-cellular")
}

// RelaxBonus grants a county a late-window activity bonus (week 18+).
func (b *Builder) RelaxBonus(county string, bonus float64) *Builder {
	if b.err != nil {
		return b
	}
	if bonus < 0 || bonus > 0.5 {
		b.err = fmt.Errorf("pandemic: relax bonus %v for %s out of [0, 0.5]", bonus, county)
		return b
	}
	b.relax[county] = bonus
	return b
}

// CaseCurve configures the logistic cumulative case curve: plateau
// scale, growth rate and midpoint (study day).
func (b *Builder) CaseCurve(plateau, k float64, midDay timegrid.StudyDay) *Builder {
	return b.CaseCurveAt(plateau, k, float64(midDay))
}

// CaseCurveAt is CaseCurve with a possibly fractional midpoint day.
func (b *Builder) CaseCurveAt(plateau, k, midDay float64) *Builder {
	if b.err != nil {
		return b
	}
	if plateau < 0 || k <= 0 {
		b.err = fmt.Errorf("pandemic: invalid case curve plateau=%v k=%v", plateau, k)
		return b
	}
	b.caseL, b.caseK, b.caseMid = plateau, k, midDay
	return b
}

// WithRelocation enables the Inner-London style temporary relocation of
// seasonal residents.
func (b *Builder) WithRelocation() *Builder {
	b.relocation = true
	return b
}

// Relocation sets the relocation toggle explicitly; Relocation(true) is
// WithRelocation.
func (b *Builder) Relocation(enabled bool) *Builder {
	b.relocation = enabled
	return b
}

// Build finalizes the scenario. Curves with no anchors remain flat at
// baseline (factor 1).
func (b *Builder) Build() (*Scenario, error) {
	if b.err != nil {
		return nil, b.err
	}
	s := &Scenario{
		activityAnchors:     finalize(b.activity),
		voiceAnchors:        finalize(b.voice),
		dataAnchors:         finalize(b.data),
		homeCellularAnchors: finalize(b.homeCellular),
		throttleAnchors:     finalize(b.throttle),
		relaxBonus:          b.relax,
		caseL:               b.caseL,
		caseK:               b.caseK,
		caseMid:             b.caseMid,
	}
	// The relocation toggle: population synthesis marks candidates
	// scenario-free, and RelocationActive gates on this scale, so a
	// scenario without relocation keeps every candidate at home.
	if b.relocation {
		s.relocationScale = 1
	}
	return s, nil
}

// finalize sorts anchors by day and returns nil for empty curves (which
// interp treats as flat 1.0).
func finalize(as []anchor) []anchor {
	if len(as) == 0 {
		return nil
	}
	cp := append([]anchor(nil), as...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].day < cp[j].day })
	return cp
}
