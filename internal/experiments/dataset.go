// Package experiments wires the full reproduction pipeline together and
// provides one runner per paper figure. A Dataset owns the synthetic UK,
// the radio topology, the population and the simulators; RunStandard
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

// Results bundles the analyzers most figures share; RunStandard fills it
// in one pass over the simulation.
type Results struct {
	Dataset  *Dataset
	Mobility *core.MobilityAnalyzer
	KPI      *core.KPIAnalyzer
	Homes    map[popsim.UserID]core.Home
	Matrix   *core.MobilityMatrix
}

// RunStandard executes the canonical full pipeline on a fresh world:
// home detection over February, then mobility metrics, the Inner-London
// mobility matrix (with the cohort chosen by *detected* homes, as in
// the paper) and the KPI analysis over the study window.
func RunStandard(cfg Config) *Results {
	return RunStandardOn(NewDataset(cfg))
}

// DayTap observes one simulated day of a RunStandardOn run: the day's
// traces and the run's KPI records for it, which are nil before the
// study window and when the dataset has no traffic engine. Both slices
// are the run's scratch: valid only during the call, and read-only.
type DayTap func(day timegrid.SimDay, traces []mobsim.DayTrace, cells []traffic.CellDay)

// RunStandardOn is RunStandard over an already-instantiated stack
// (e.g. one of several scenarios bound to a shared World).
//
// It runs the simulation twice: a February-only pass to detect homes
// (so the matrix cohort exists before the study window starts), then the
// study window. Both passes are deterministic and share the same per-day
// streams, so the traces are identical across passes. One day buffer
// serves both: every analyzer consumes a day before the next is
// simulated, so nothing outlives the buffer's reuse.
//
// Every simulated day reaches each tap once, in ascending order: days
// before the study window from the February pass, study days from the
// study pass after the run's own folds. Taps derive further outputs
// from the same pass instead of simulating the window again.
func RunStandardOn(d *Dataset, taps ...DayTap) *Results {
	buf := mobsim.NewDayBuffer()
	r := newResults(d, detectHomes(d.Sim, d.Topology, buf, taps...))
	// Without a cancellable context or riders the loop cannot fail.
	runStudy(context.Background(), nil, r, buf, 0, nil, nil, taps)
	return r
}

// detectHomes runs the February home-detection pass: sim's February
// days, simulated into buf, through one detector, and those before the
// study window through taps.
func detectHomes(sim *mobsim.Simulator, topo *radio.Topology, buf *mobsim.DayBuffer, taps ...DayTap) homesMap {
	hd := core.NewHomeDetector(topo)
	for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
		traces := sim.DayInto(buf, day)
		hd.ConsumeDay(day, traces)
		if day < timegrid.StudyDayOffset {
			for _, tap := range taps {
				tap(day, traces, nil)
			}
		}
	}
	return hd.Detect()
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

// runStudy is the serial study-window day loop behind RunStandardOn and
// every sweep run (runPrefixScenario). It simulates study days
// [start, timegrid.StudyDays) of r's stack into buf on one goroutine and
// folds each into r's analyzers. At every day boundary sd (days [0, sd)
// consumed) it first captures a checkpoint when snapAt[sd] and attaches
// the riders whose fork day is sd; attached riders then fold the host's
// traces with their own engines, and taps see each day after the folds
// (see DayTap). ctx is checked before every day: a cancelled run
// returns ctx.Err() and no checkpoints.
func runStudy(ctx context.Context, fi *fault.Injector, r *Results, buf *mobsim.DayBuffer, start int, snapAt map[int]bool, riders []riderState, taps []DayTap) (map[int]*Checkpoint, error) {
	d := r.Dataset
	var snaps map[int]*Checkpoint
	var cells []traffic.CellDay
	for sd := start; ; sd++ {
		if snapAt[sd] {
			if snaps == nil {
				snaps = make(map[int]*Checkpoint, len(snapAt))
			}
			snaps[sd] = captureCheckpoint(r, sd)
		}
		for k := range riders {
			riders[k].attach(ctx, fi, r, sd)
		}
		if sd == timegrid.StudyDays {
			return snaps, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		day := timegrid.StudyDay(sd).ToSimDay()
		traces := d.Sim.DayInto(buf, day)
		r.Mobility.ConsumeDay(day, traces)
		r.Matrix.ConsumeDay(day, traces)
		if d.Engine != nil {
			cells = d.Engine.DayAppend(cells[:0], day, traces)
			r.KPI.ConsumeDay(day, cells)
		}
		for k := range riders {
			riders[k].consume(day, traces)
		}
		for _, tap := range taps {
			tap(day, traces, cells)
		}
	}
}
