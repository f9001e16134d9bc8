package experiments

import (
	"sync"
	"sync/atomic"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// World is the immutable, scenario-independent part of a simulation
// stack: the synthetic census, the radio topology and the synthesized
// population. Building one is the expensive step of every run; a World
// built once can instantiate any number of per-scenario run stacks
// (Instantiate), which is how a Sweep streams many scenarios through
// one shared world.
//
// Nothing in a World is mutated by simulation, so per-scenario stacks —
// and the workers inside each streaming run — share it freely.
type World struct {
	// Seed, TargetUsers and PopPerTower echo the Config the world was
	// built from (normalized: a zero config falls back to defaults).
	Seed        uint64
	TargetUsers int
	PopPerTower int

	Model    *census.Model
	Topology *radio.Topology
	Pop      *popsim.Population

	homesOnce sync.Once
	homes     map[popsim.UserID]core.Home
}

// Homes returns the February home-detection result, computed once per
// world and shared by every scenario run on it. February precedes the
// study window, so every scenario's behavioural factors sit at their
// baselines there and the simulated traces — hence the detected homes —
// are scenario-invariant (asserted by TestWorldHomesScenarioInvariant).
// Callers must treat the returned map as read-only.
//
// The call that runs the pass simulates into buf, or into a fresh
// buffer when buf is nil; a sweep hands in a pooled buffer and puts it
// back for its first run.
func (w *World) Homes(buf *mobsim.DayBuffer) map[popsim.UserID]core.Home {
	w.homesOnce.Do(func() {
		if buf == nil {
			buf = mobsim.NewDayBuffer()
		}
		sim := mobsim.New(w.Pop, pandemic.Default(), w.Seed)
		hd := core.NewHomeDetector(w.Topology)
		for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
			hd.ConsumeDay(day, sim.DayInto(buf, day))
		}
		w.homes = hd.Detect()
	})
	return w.homes
}

// worldBuilds counts World constructions process-wide; tests use it to
// assert that a sweep reuses one world instead of rebuilding per
// scenario.
var worldBuilds atomic.Int64

// WorldBuildCount returns the number of Worlds built by this process.
func WorldBuildCount() int64 { return worldBuilds.Load() }

// NewWorld builds the scenario-independent stack deterministically from
// the config's Seed, TargetUsers and PopPerTower (the scenario and
// per-run knobs are ignored here; they bind at Instantiate time).
func NewWorld(cfg Config) *World {
	if cfg.TargetUsers == 0 {
		cfg = DefaultConfig()
	}
	worldBuilds.Add(1)
	model := census.BuildUK(cfg.Seed)
	rcfg := radio.DefaultConfig()
	if cfg.PopPerTower > 0 {
		rcfg.PopPerTower = cfg.PopPerTower
	}
	topo := radio.Build(model, rcfg, cfg.Seed)
	pop := popsim.Synthesize(model, topo, popsim.Config{
		Seed:           cfg.Seed,
		TargetUsers:    cfg.TargetUsers,
		M2MFraction:    0.08,
		RoamerFraction: 0.03,
	})
	return &World{
		Seed:        cfg.Seed,
		TargetUsers: cfg.TargetUsers,
		PopPerTower: cfg.PopPerTower,
		Model:       model,
		Topology:    topo,
		Pop:         pop,
	}
}

// Instantiate binds a scenario and the per-run knobs (TopN, SkipKPI) to
// the world, returning a ready run stack. cfg.Scenario nil means the
// calibrated default. The world fields of cfg (Seed, TargetUsers,
// PopPerTower) are overwritten with the world's own values so the
// Dataset's Config always reflects the stack it runs on.
func (w *World) Instantiate(cfg Config) *Dataset {
	return w.instantiate(cfg, nil)
}

// instantiate is Instantiate with an optional traffic engine to reuse:
// when non-nil (and KPI is enabled), the engine — built earlier on this
// same world and seed — is rebound to the new scenario instead of
// constructing a fresh one, keeping its warm scratch. Rebind preserves
// bit-identity with NewEngine (see traffic.Engine.Rebind), so the sweep
// executor recycles warm engines through consecutive scenario runs.
func (w *World) instantiate(cfg Config, reuse *traffic.Engine) *Dataset {
	d := w.bind(cfg)
	d.Sim = mobsim.New(w.Pop, d.Scenario, d.Config.Seed)
	if !d.Config.SkipKPI {
		if reuse != nil {
			d.Engine = reuse.Rebind(d.Scenario)
		} else {
			d.Engine = traffic.NewEngine(w.Pop, d.Scenario, traffic.DefaultParams(), d.Config.Seed)
		}
	}
	return d
}

// bind is instantiate without the simulator and the engine (Sim and
// Engine stay nil): a sweep rider folds its host's traces on its host's
// engine, so it needs only its own config and scenario.
func (w *World) bind(cfg Config) *Dataset {
	if cfg.TopN == 0 {
		cfg.TopN = core.DefaultTopN
	}
	cfg.Seed = w.Seed
	cfg.TargetUsers = w.TargetUsers
	cfg.PopPerTower = w.PopPerTower
	scen := cfg.Scenario
	if scen == nil {
		scen = pandemic.Default()
	}
	return &Dataset{
		Config:   cfg,
		World:    w,
		Model:    w.Model,
		Topology: w.Topology,
		Pop:      w.Pop,
		Scenario: scen,
	}
}
