// Package experiments wires the full reproduction pipeline together and
// provides one runner per paper figure. A Dataset owns the synthetic UK,
// the radio topology, the population and the simulators; RunStreamingOn
// streams the 100 simulated days (February for home detection, weeks
// 9–19 for the analyses) through every analyzer.
package experiments

import (
	"context"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// Config scales the reproduction. Larger TargetUsers give smoother
// medians at linear cost.
type Config struct {
	Seed        uint64
	TargetUsers int
	// PopPerTower controls radio density (see radio.Config).
	PopPerTower int
	// Scenario overrides the default pandemic scenario when non-nil.
	Scenario *pandemic.Scenario
	// TopN is the per-user tower filter (0 disables, default 20).
	TopN int
	// SkipKPI skips the traffic engine (mobility-only runs are ~3×
	// faster; used by mobility figures and benchmarks).
	SkipKPI bool
}

// DefaultConfig is the scale used by tests and the figure harness.
func DefaultConfig() Config {
	return Config{Seed: 42, TargetUsers: popsim.ScaleSmall, PopPerTower: 40_000, TopN: core.DefaultTopN}
}

// Dataset is a fully constructed simulation stack: a shared,
// scenario-independent World plus the per-scenario run stack (the
// mobility simulator and the traffic engine) bound to it.
type Dataset struct {
	Config   Config
	World    *World
	Model    *census.Model
	Topology *radio.Topology
	Pop      *popsim.Population
	Scenario *pandemic.Scenario
	Sim      *mobsim.Simulator
	Engine   *traffic.Engine
}

// NewDataset builds a fresh world and binds the config's scenario to
// it. Callers running several scenarios over the same seed and scale
// should build one World and Instantiate per scenario instead (or use
// RunSweepParallelOpts), which skips the expensive world rebuild.
func NewDataset(cfg Config) *Dataset {
	if cfg.TargetUsers == 0 {
		cfg = DefaultConfig()
	}
	return NewWorld(cfg).Instantiate(cfg)
}

// Results bundles the analyzers most figures share; RunStreamingOn
// fills it in one pass over the simulation, a sweep one per scenario.
type Results struct {
	Dataset  *Dataset
	Mobility *core.MobilityAnalyzer
	KPI      *core.KPIAnalyzer
	Homes    map[popsim.UserID]core.Home
	Matrix   *core.MobilityMatrix
}

// newResults binds fresh study-window analyzers to d over the detected
// homes: national mobility, the Inner-London matrix over the users whose
// detected home county is Inner London (the paper's cohort) and, when d
// has a traffic engine, the KPI analyzer.
func newResults(d *Dataset, homes homesMap) *Results {
	inner := d.Model.InnerLondon()
	var cohort []popsim.UserID
	for uid, h := range homes {
		if h.County == inner.ID {
			cohort = append(cohort, uid)
		}
	}
	r := &Results{
		Dataset:  d,
		Homes:    homes,
		Mobility: core.NewMobilityAnalyzer(d.Pop, d.Config.TopN),
		Matrix:   core.NewMobilityMatrix(d.Pop, inner.ID, cohort, d.Config.TopN),
	}
	if d.Engine != nil {
		r.KPI = core.NewKPIAnalyzer(d.Topology)
	}
	return r
}

// runStudy is the serial study-window day loop behind every sweep run
// (runPrefixScenario). It simulates study days
// [start, timegrid.StudyDays) of r's stack into ds on one goroutine and
// folds each into r's analyzers. At every day boundary sd (days [0, sd)
// consumed) it first hands r to publish, which checkpoints it for the
// runs that fork there so they need not wait for this one to finish;
// then it attaches the riders whose fork day is sd.
// Attached riders fold each day after the host, on the host's engine
// rebound to them and into the host's record buffer.
// ctx is checked before every day: a cancelled run returns ctx.Err()
// and publishes nothing more.
func runStudy(ctx context.Context, fi *fault.Injector, r *Results, ds *dayScratch, start int, publish func(sd int, r *Results), riders []rider) error {
	d := r.Dataset
	for sd := start; ; sd++ {
		if publish != nil {
			publish(sd, r)
		}
		for k := range riders {
			riders[k].attach(ctx, fi, r, sd)
		}
		if sd == timegrid.StudyDays {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		day := timegrid.StudyDay(sd).ToSimDay()
		traces := d.Sim.DayInto(ds.buf, day)
		r.Mobility.ConsumeDay(day, traces)
		r.Matrix.ConsumeDay(day, traces)
		if d.Engine != nil {
			ds.cells = d.Engine.DayAppend(ds.cells[:0], day, traces)
			r.KPI.ConsumeDay(day, ds.cells)
			for k := range riders {
				if rd := &riders[k]; rd.attached && rd.err == nil {
					ds.cells = d.Engine.Rebind(rd.r.Dataset.Scenario).DayAppend(ds.cells[:0], day, traces)
					rd.r.KPI.ConsumeDay(day, ds.cells)
				}
			}
			d.Engine.Rebind(d.Scenario)
		}
	}
}
