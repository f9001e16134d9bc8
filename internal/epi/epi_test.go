package epi

import (
	"math"
	"testing"

	"repro/internal/pandemic"
	"repro/internal/timegrid"
)

func TestConservation(t *testing.T) {
	p := UK2020()
	r, err := Run(p, 120, ConstantContact(1))
	if err != nil {
		t.Fatal(err)
	}
	for d, s := range r.States {
		total := s.S + s.E + s.I + s.R
		if math.Abs(total-p.Population) > p.Population*1e-6 {
			t.Fatalf("day %d: compartments sum to %v, want %v", d, total, p.Population)
		}
		if s.S < 0 || s.E < -1e-6 || s.I < -1e-6 || s.R < -1e-6 {
			t.Fatalf("day %d: negative compartment %+v", d, s)
		}
	}
}

func TestEpidemicGrowsThenWanes(t *testing.T) {
	p := UK2020()
	r, err := Run(p, 360, ConstantContact(1))
	if err != nil {
		t.Fatal(err)
	}
	peakDay, peak := r.PeakInfectious()
	if peakDay <= 10 || peakDay >= 250 {
		t.Errorf("peak at day %d", peakDay)
	}
	if peak < p.SeedInfections*10 {
		t.Errorf("peak %v too small", peak)
	}
	// After the peak the epidemic wanes.
	last := r.States[len(r.States)-1]
	if last.I > peak/4 {
		t.Errorf("end infectious %v vs peak %v: no decline", last.I, peak)
	}
	// Classic SEIR final size with R0≈2.8: most of the population.
	ar := r.AttackRate(p.Population)
	if ar < 0.7 || ar > 1 {
		t.Errorf("attack rate = %v", ar)
	}
}

func TestInterventionShrinksEpidemic(t *testing.T) {
	p := UK2020()
	horizon := 200
	free, err := Run(p, horizon, ConstantContact(1))
	if err != nil {
		t.Fatal(err)
	}
	// Contact rate halves on day 30 (a lockdown).
	locked, err := Run(p, horizon, func(day float64) float64 {
		if day < 30 {
			return 1
		}
		return 0.35
	})
	if err != nil {
		t.Fatal(err)
	}
	if locked.AttackRate(p.Population) >= free.AttackRate(p.Population)*0.8 {
		t.Errorf("lockdown attack rate %v vs free %v: intervention ineffective",
			locked.AttackRate(p.Population), free.AttackRate(p.Population))
	}
	_, freePeak := free.PeakInfectious()
	_, lockPeak := locked.PeakInfectious()
	if lockPeak >= freePeak {
		t.Error("lockdown did not flatten the peak")
	}
}

func TestConfirmedCurveProperties(t *testing.T) {
	p := UK2020()
	r, err := Run(p, 150, ConstantContact(0.9))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for d, c := range r.Confirmed {
		if c < prev {
			t.Fatalf("confirmed curve not monotone at day %d", d)
		}
		prev = c
	}
	// Ascertainment bounds confirmed below cumulative infections.
	last := len(r.Confirmed) - 1
	if r.Confirmed[last] > r.States[last].CumInfections {
		t.Error("confirmed exceeds infections")
	}
	// Reporting lag: confirmed lags the unlagged series.
	if r.Confirmed[p.ReportingLagDays] > p.Ascertainment*r.States[p.ReportingLagDays].CumInfections+1e-6 {
		t.Error("reporting lag not applied")
	}
}

func TestScenarioCoupledContact(t *testing.T) {
	// Drive the SEIR model with the behavioural scenario's activity —
	// the mechanistic replacement for the logistic case curve.
	scen := pandemic.Default()
	contact := func(day float64) float64 {
		sd := timegrid.StudyDay(day)
		if sd >= timegrid.StudyDays {
			sd = timegrid.StudyDays - 1
		}
		// Transmission scales between a floor (household) and full
		// baseline contact with the activity level.
		return 0.35 + 0.65*scen.Activity(sd)
	}
	p := UK2020()
	r, err := Run(p, timegrid.StudyDays, contact)
	if err != nil {
		t.Fatal(err)
	}
	// Peak infectious lands after the lockdown starts (the intervention
	// bends the curve), well inside the window.
	peakDay, _ := r.PeakInfectious()
	if peakDay < int(timegrid.LockdownStart) {
		t.Errorf("peak at day %d, before the lockdown at %d", peakDay, timegrid.LockdownStart)
	}
	// First-wave attack rate stays well below the free-running epidemic.
	if ar := r.AttackRate(p.Population); ar > 0.35 {
		t.Errorf("attack rate %v too high for a suppressed first wave", ar)
	}
	// Confirmed cases land in the first-wave ballpark (10^5 … 10^6).
	final := r.Confirmed[len(r.Confirmed)-1]
	if final < 5e4 || final > 5e6 {
		t.Errorf("confirmed cases = %v", final)
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{},
		{Population: -1, R0: 2, IncubationDays: 5, InfectiousDays: 5},
		{Population: 1000, R0: 0, IncubationDays: 5, InfectiousDays: 5},
		{Population: 1000, R0: 2, IncubationDays: 0, InfectiousDays: 5},
		{Population: 1000, R0: 2, IncubationDays: 5, InfectiousDays: 5, SeedInfections: 5000},
		{Population: 1000, R0: 2, IncubationDays: 5, InfectiousDays: 5, Ascertainment: 2},
		{Population: 1000, R0: 2, IncubationDays: 5, InfectiousDays: 5, ReportingLagDays: -1},
	}
	for i, p := range bad {
		if _, err := Run(p, 10, nil); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if _, err := Run(UK2020(), -5, nil); err == nil {
		t.Error("negative horizon accepted")
	}
	// Nil contact defaults to baseline.
	if _, err := Run(UK2020(), 10, nil); err != nil {
		t.Errorf("nil contact rejected: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run(UK2020(), 100, ConstantContact(0.8))
	b, _ := Run(UK2020(), 100, ConstantContact(0.8))
	for d := range a.States {
		if a.States[d] != b.States[d] {
			t.Fatalf("states differ at day %d", d)
		}
	}
}
