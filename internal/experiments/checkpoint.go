package experiments

import (
	"repro/internal/core"
	"repro/internal/timegrid"
)

// A Checkpoint captures the state of a study-window run at a day
// boundary: study days [0, Day) consumed, everything the per-day loop
// threads forward across days. That state is exactly the analyzer folds
// — by the pipeline's day-purity invariants, nothing else carries
// across a day boundary:
//
//   - rng streams are derived fresh per (user, day) from the master
//     seed (rng.Stream2), so no generator position survives a day;
//   - the mobility simulator is a pure function of (population,
//     scenario, seed, day) — mobsim.Simulator.DayInto holds no
//     cross-day state;
//   - the traffic engine's tower accumulators are epoch-stamped per-day
//     scratch, rebuilt from that day's traces (traffic.Engine.DayAppend
//     is pure in construction inputs and day), and engine construction
//     is scenario-independent (Engine.Rebind);
//   - the February home-detection fold is finished before the study
//     window starts and shared read-only (World.Homes).
//
// A checkpoint taken at the fork day of two scenarios that agree on
// every earlier day (pandemic.Scenario.DivergenceFrom) can therefore
// seed either scenario's continuation, bit-identically to running that
// scenario from day 0 — the basis of the copy-on-divergence sweep.
// Fork gives each continuation its own deep copy. Checkpoints live in
// memory only, for the duration of one sweep.
type Checkpoint struct {
	// Day is the first unconsumed study day: the run resumes here.
	Day timegrid.StudyDay

	Mobility *core.MobilityAnalyzer
	Matrix   *core.MobilityMatrix
	// KPI is nil for SkipKPI (mobility-only) runs.
	KPI *core.KPIAnalyzer
}

// Fork returns an independent deep copy: continuations advanced from
// the original and the fork (e.g. under different scenarios) share no
// mutable state (asserted by TestCheckpointForkNoAliasing).
func (c *Checkpoint) Fork() *Checkpoint {
	f := &Checkpoint{Day: c.Day, Mobility: c.Mobility.Fork(), Matrix: c.Matrix.Fork()}
	if c.KPI != nil {
		f.KPI = c.KPI.Fork()
	}
	return f
}
