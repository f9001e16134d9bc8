// Package epi implements a deterministic SEIR compartmental epidemic
// model. The paper only consumes the *cumulative confirmed case curve*
// (Fig. 4 correlates it with mobility), for which the pandemic package
// ships a calibrated logistic; this package provides the mechanistic
// alternative: an SEIR integration whose transmission rate responds to
// the simulated mobility reduction, so counterfactual scenarios (see
// pandemic.Builder) get epidemiologically-consistent case curves.
//
// The model is the classic four-compartment system over a closed
// population N:
//
//	S' = −β(t)·S·I/N
//	E' = +β(t)·S·I/N − σ·E
//	I' = +σ·E − γ·I
//	R' = +γ·I
//
// integrated with RK4 at fixed steps. β(t) is supplied by the caller as
// a contact-rate curve — typically proportional to the behavioural
// scenario's activity level, which is precisely the feedback loop the
// interventions create. Confirmed cases are modelled as a constant
// ascertainment fraction of cumulative infections, reported with a lag.
package epi

import (
	"errors"
	"fmt"
)

// Params configures the SEIR model.
type Params struct {
	// Population is the closed population N.
	Population float64
	// R0 is the basic reproduction number at baseline contact rates;
	// beta(t) = R0·γ·contact(t).
	R0 float64
	// IncubationDays is 1/σ (exposed → infectious).
	IncubationDays float64
	// InfectiousDays is 1/γ (infectious → removed).
	InfectiousDays float64
	// SeedInfections is the initial infectious count I(0); E(0) is
	// seeded at twice that, as in early-growth conditions.
	SeedInfections float64
	// Ascertainment is the fraction of cumulative infections that
	// appear as lab-confirmed cases.
	Ascertainment float64
	// ReportingLagDays delays confirmed counts relative to infection.
	ReportingLagDays int
	// StepsPerDay is the RK4 resolution (default 4).
	StepsPerDay int
}

// UK2020 returns parameters in the ranges the early-2020 literature
// used for the UK epidemic (R0 ≈ 2.8, ~5 day incubation, ~5 day
// infectious period, low ascertainment of the first wave).
func UK2020() Params {
	return Params{
		Population:       66_000_000,
		R0:               2.8,
		IncubationDays:   5,
		InfectiousDays:   5,
		SeedInfections:   2_000, // imported seeding by late February
		Ascertainment:    0.045,
		ReportingLagDays: 6,
		StepsPerDay:      4,
	}
}

// validate checks parameter sanity.
func (p Params) validate() error {
	switch {
	case p.Population <= 0:
		return errors.New("epi: non-positive population")
	case p.R0 <= 0:
		return errors.New("epi: non-positive R0")
	case p.IncubationDays <= 0 || p.InfectiousDays <= 0:
		return errors.New("epi: non-positive stage durations")
	case p.SeedInfections < 0 || p.SeedInfections > p.Population:
		return fmt.Errorf("epi: seed infections %v out of range", p.SeedInfections)
	case p.Ascertainment < 0 || p.Ascertainment > 1:
		return fmt.Errorf("epi: ascertainment %v out of [0,1]", p.Ascertainment)
	case p.ReportingLagDays < 0:
		return errors.New("epi: negative reporting lag")
	}
	return nil
}

// State is the compartment occupancy at one day boundary.
type State struct {
	S, E, I, R float64
	// CumInfections is the running total of everyone who has left S.
	CumInfections float64
}

// Result is a full simulated trajectory at daily resolution.
type Result struct {
	Days   int
	States []State // len Days+1; States[0] is the initial condition
	// Confirmed[d] is the cumulative lab-confirmed count on day d,
	// after ascertainment and reporting lag.
	Confirmed []float64
}

// ContactFunc returns the relative contact rate on a (possibly
// fractional) day: 1.0 at baseline, lower under restrictions. Values are
// clamped at 0.
type ContactFunc func(day float64) float64

// ConstantContact returns a flat contact curve.
func ConstantContact(level float64) ContactFunc {
	return func(float64) float64 { return level }
}

// Run integrates the model for the given number of days.
func Run(p Params, days int, contact ContactFunc) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if days < 0 {
		return Result{}, errors.New("epi: negative horizon")
	}
	if contact == nil {
		contact = ConstantContact(1)
	}
	steps := p.StepsPerDay
	if steps <= 0 {
		steps = 4
	}
	sigma := 1 / p.IncubationDays
	gamma := 1 / p.InfectiousDays
	beta0 := p.R0 * gamma

	st := State{
		S: p.Population - 3*p.SeedInfections,
		E: 2 * p.SeedInfections,
		I: p.SeedInfections,
		R: 0,
	}
	st.CumInfections = p.Population - st.S

	res := Result{Days: days}
	res.States = make([]State, 0, days+1)
	res.States = append(res.States, st)

	h := 1.0 / float64(steps)
	deriv := func(s State, t float64) (dS, dE, dI, dR float64) {
		c := contact(t)
		if c < 0 {
			c = 0
		}
		force := beta0 * c * s.S * s.I / p.Population
		return -force, force - sigma*s.E, sigma*s.E - gamma*s.I, gamma * s.I
	}

	for d := 0; d < days; d++ {
		for k := 0; k < steps; k++ {
			t := float64(d) + float64(k)*h
			// RK4 step.
			s1S, s1E, s1I, s1R := deriv(st, t)
			mid1 := State{S: st.S + h/2*s1S, E: st.E + h/2*s1E, I: st.I + h/2*s1I, R: st.R + h/2*s1R}
			s2S, s2E, s2I, s2R := deriv(mid1, t+h/2)
			mid2 := State{S: st.S + h/2*s2S, E: st.E + h/2*s2E, I: st.I + h/2*s2I, R: st.R + h/2*s2R}
			s3S, s3E, s3I, s3R := deriv(mid2, t+h/2)
			end := State{S: st.S + h*s3S, E: st.E + h*s3E, I: st.I + h*s3I, R: st.R + h*s3R}
			s4S, s4E, s4I, s4R := deriv(end, t+h)
			st.S += h / 6 * (s1S + 2*s2S + 2*s3S + s4S)
			st.E += h / 6 * (s1E + 2*s2E + 2*s3E + s4E)
			st.I += h / 6 * (s1I + 2*s2I + 2*s3I + s4I)
			st.R += h / 6 * (s1R + 2*s2R + 2*s3R + s4R)
			if st.S < 0 {
				st.S = 0
			}
		}
		st.CumInfections = p.Population - st.S
		res.States = append(res.States, st)
	}

	// Confirmed cases: lagged, ascertained cumulative infections.
	res.Confirmed = make([]float64, days+1)
	for d := 0; d <= days; d++ {
		src := d - p.ReportingLagDays
		if src < 0 {
			src = 0
		}
		res.Confirmed[d] = p.Ascertainment * res.States[src].CumInfections
	}
	return res, nil
}

// PeakInfectious returns the day and level of the infectious peak.
func (r Result) PeakInfectious() (day int, level float64) {
	for d, s := range r.States {
		if s.I > level {
			level = s.I
			day = d
		}
	}
	return day, level
}

// AttackRate returns the fraction of the population infected by the end
// of the horizon.
func (r Result) AttackRate(population float64) float64 {
	if len(r.States) == 0 || population <= 0 {
		return 0
	}
	return r.States[len(r.States)-1].CumInfections / population
}
