package experiments

import (
	"context"
	"errors"
	"sync"

	"repro/internal/fault"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// Copy-on-divergence sweep: before a scenario's behaviour departs from
// an already-scheduled scenario's (pandemic.Scenario.DivergenceFrom),
// their simulated days are bit-identical — so the sweep simulates each
// shared prefix once, checkpoints at the fork day, and forks the
// continuation per scenario. See PERFORMANCE.md, "Copy-on-divergence
// sweeps".

// prefixPlan is the fork tree of a sweep: for every scenario, the
// earlier-indexed scenario it forks from (or -1 for a root that runs
// from day 0) and the number of leading study days they share.
type prefixPlan struct {
	parent   []int
	forkDay  []int
	children [][]int
	// rider[i] marks scenarios whose traces are bit-identical to their
	// parent's over the whole window (pandemic.Scenario.TraceEqual):
	// instead of forking a checkpoint and re-simulating the suffix, a
	// rider runs inside its host's day loop, folding the host's traces
	// into its own KPI fold on the host's engine. Riders are leaves —
	// they never host checkpoints or riders of their own.
	rider []bool
}

// planPrefix builds the fork tree greedily: each scenario forks from
// the earlier-indexed scenario it shares the most leading days with
// (ties to the smallest index). The earliest-index tie-break makes the
// tree feasible by construction: divergence days are an ultrametric
// (two scenarios that each match a third through day d-1 match each
// other through day d-1), so a child is only attached to parent i when
// it shares strictly more days with i than with i's own ancestor —
// every checkpoint a run must take therefore lies at or after the day
// the run itself starts. timegrid.StudyDays itself is a valid fork day
// (behaviourally identical scenarios fork after the last day and
// re-simulate nothing).
func planPrefix(scens []SweepScenario) prefixPlan {
	n := len(scens)
	p := prefixPlan{
		parent:   make([]int, n),
		forkDay:  make([]int, n),
		children: make([][]int, n),
		rider:    make([]bool, n),
	}
	compiled := make([]*pandemic.Scenario, n)
	for i := range scens {
		if compiled[i] = scens[i].Scenario; compiled[i] == nil {
			compiled[i] = pandemic.Default()
		}
	}
	for i := 0; i < n; i++ {
		best := 0
		p.parent[i] = -1
		for j := 0; j < i; j++ {
			if shared := sharedPrefixDays(compiled[i], compiled[j]); shared > best {
				best, p.parent[i] = shared, j
			}
		}
		p.forkDay[i] = best
		if j := p.parent[i]; j >= 0 {
			p.children[j] = append(p.children[j], i)
		}
	}
	// Riders: parented leaves whose traces are bit-identical to their
	// parent's over the whole study window. Only leaves qualify — a run
	// that hands checkpoints (or riders) to others must own its day loop.
	// A rider's parent is never itself a rider: having a child
	// disqualifies the parent from the leaf check.
	for i := 0; i < n; i++ {
		if j := p.parent[i]; j >= 0 && len(p.children[i]) == 0 && compiled[i].TraceEqual(compiled[j]) {
			p.rider[i] = true
		}
	}
	return p
}

// sharedPrefixDays converts a divergence day into a whole number of
// leading study days two scenarios share, clamped to the study window
// (+Inf — behaviourally identical — shares everything).
func sharedPrefixDays(a, b *pandemic.Scenario) int {
	div := a.DivergenceFrom(b)
	if !(div > 0) {
		return 0 // also catches NaN defensively
	}
	if div > timegrid.StudyDays {
		return timegrid.StudyDays
	}
	return int(div)
}

// captureCheckpoint forks the run's live folds into a checkpoint at
// study day sd (days [0, sd) consumed).
func captureCheckpoint(r *Results, sd int) *Checkpoint {
	live := Checkpoint{Day: timegrid.StudyDay(sd), Mobility: r.Mobility, Matrix: r.Matrix, KPI: r.KPI}
	return live.Fork()
}

// errRiderUnattached guards an impossible-by-construction state: the
// planPrefix feasibility argument puts every rider's fork day at or
// after its host's start day, so a host loop always visits it.
var errRiderUnattached = errors.New("experiments: rider fork day precedes host start; plan infeasible")

// scratchPool recycles day scratch, warm engines included, across the
// sweep's host runs. Rebind is bit-identical to NewEngine, and DayInto
// and DayAppend overwrite a scratch before each day, so reuse never
// changes output. Scratch from panicked runs is never returned
// (poisoned).
type scratchPool struct {
	mu   sync.Mutex
	free []*dayScratch
}

// dayScratch is a host run's day scratch: the buffer it simulates each
// day into, and the engine and record buffer its KPI fold shares with
// its riders'. Pooled, it grows once per concurrent day loop.
type dayScratch struct {
	buf   *mobsim.DayBuffer
	eng   *traffic.Engine
	cells []traffic.CellDay
}

// get pops a pooled scratch, or builds a fresh one (no engine yet)
// when the pool is empty.
func (p *scratchPool) get() *dayScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return &dayScratch{buf: mobsim.NewDayBuffer()}
	}
	ds := p.free[n-1]
	p.free = p.free[:n-1]
	return ds
}

func (p *scratchPool) put(ds *dayScratch) {
	p.mu.Lock()
	p.free = append(p.free, ds)
	p.mu.Unlock()
}

// rider is a trace-equal scenario (prefixPlan.rider) serviced inside
// its host's day loop: its own result set over the host's traces,
// folded on the host's engine. runPrefixScenario binds r.
type rider struct {
	idx      int
	forkDay  int
	sc       SweepScenario
	r        *Results
	err      error
	attached bool
}

// attach starts the rider at its fork boundary sd (days [0, sd)
// consumed), after the same ctx/fault gates a standalone run passes:
// the host's KPI fold through those days is the rider's own, since
// their factors agree below the fork day.
func (rd *rider) attach(ctx context.Context, fi *fault.Injector, host *Results, sd int) {
	if rd.attached || rd.err != nil || rd.forkDay != sd {
		return
	}
	if err := ctx.Err(); err != nil {
		rd.err = err
		return
	}
	if err := fi.Fire(fault.SweepRun, int64(rd.idx)); err != nil {
		rd.err = err
		return
	}
	if host.KPI != nil {
		rd.r.KPI = host.KPI.Fork()
	}
	rd.attached = true
}

// settle returns the rider's sweep run once its host has finished the
// study window: the host's final mobility folds are the rider's own
// (identical traces every day), so it forks rather than re-folds them.
func (rd *rider) settle(host *Results) SweepRun {
	run := SweepRun{Name: rd.sc.Name, Err: rd.err}
	if run.Err == nil && !rd.attached {
		run.Err = errRiderUnattached
	}
	if run.Err != nil {
		return run
	}
	rd.r.Mobility = host.Mobility.Fork()
	rd.r.Matrix = host.Matrix.Fork()
	run.Results, run.Headlines, run.PrefixDays = rd.r, Headlines(rd.r), rd.forkDay
	return run
}

// runPrefixScenario executes one sweep entry on the serial study loop
// (runStudy — bit-identical to the streaming engine at any worker and
// shard count, see RunStreamingOn), optionally resuming from a forked
// checkpoint, handing the live results to publish at every day boundary
// (a nil publish skips that) and carrying the given riders inline.
// PrefixDays of a successful run counts the study days start skipped.
//
// A rider attaches at the boundary a checkpoint child would fork at and
// from there consumes the host's traces — bit-identical to its own by
// pandemic.Scenario.TraceEqual — into its own KPI fold on the host's
// traffic engine; rider.settle then gives it the host's final mobility
// folds.
// Rider attach runs the same ctx/fault gates a standalone run would, so
// injected rider faults surface identically; a rider failure never
// touches the host. A host failure loses its riders' partial state —
// the caller then falls back to standalone day-0 runs, matching the
// children-of-a-failed-parent fallback (a panic mid-loop therefore
// fails the host run but only costs its riders the sharing, not their
// results).
//
// Every failure mode — a cancelled ctx, an injected fault.SweepRun
// fault, a panic anywhere in the scenario stack — lands in run.Err, so
// one poisoned scenario cannot take down its sweep.
func runPrefixScenario(ctx context.Context, w *World, cfg Config, fi *fault.Injector, sc SweepScenario, idx int, homes homesMap, start *Checkpoint, publish func(sd int, r *Results), riders []rider, pool *scratchPool) (run SweepRun) {
	defer func() {
		if v := recover(); v != nil {
			run = SweepRun{Name: sc.Name, Err: stream.NewWorkerPanic("sweep", -1, -1, v)}
		}
	}()
	run.Name = sc.Name
	if err := ctx.Err(); err != nil {
		run.Err = err
		return
	}
	if err := fi.Fire(fault.SweepRun, int64(idx)); err != nil {
		run.Err = err
		return
	}

	ds := pool.get()
	c := cfg
	c.Scenario = sc.Scenario
	d := w.instantiate(c, ds.eng)
	ds.eng = d.Engine // nil only when the whole sweep skips KPIs
	var r *Results
	startDay := 0
	if start != nil {
		startDay = int(start.Day)
		r = &Results{Dataset: d, Homes: homes, Mobility: start.Mobility, Matrix: start.Matrix, KPI: start.KPI}
	} else {
		r = newResults(d, homes)
	}
	for k := range riders {
		rc := cfg
		rc.Scenario = riders[k].sc.Scenario
		riders[k].r = &Results{Dataset: w.bind(rc), Homes: homes}
	}

	err := runStudy(ctx, fi, r, ds, startDay, publish, riders)
	// Only a normal return gets here; a panic leaves ds to the GC.
	pool.put(ds)
	if err != nil {
		run.Err = err
		return
	}
	run.Results, run.Headlines, run.PrefixDays = r, Headlines(r), startDay
	return
}
