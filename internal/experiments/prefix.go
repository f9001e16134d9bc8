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
	// snapAt[i] marks the study days run i must checkpoint at, i.e. the
	// fork days of its non-rider children. timegrid.StudyDays itself is
	// a valid snap day (behaviourally identical scenarios fork after the
	// last day and re-simulate nothing).
	snapAt []map[int]bool
	// rider[i] marks scenarios whose traces are bit-identical to their
	// parent's over the whole window (pandemic.Scenario.TraceEqual):
	// instead of forking a checkpoint and re-simulating the suffix, a
	// rider runs inside its host's day loop, folding the host's traces
	// into its own KPI fold on the host's engine. riders[j] lists run j's
	// riders. Riders are leaves — they never host checkpoints or riders
	// of their own.
	rider  []bool
	riders [][]int
}

// planRoots is the fork tree of an unshared sweep: every scenario is a
// root run from day 0, with no checkpoints and no riders.
func planRoots(n int) prefixPlan {
	p := prefixPlan{
		parent:   make([]int, n),
		forkDay:  make([]int, n),
		children: make([][]int, n),
		snapAt:   make([]map[int]bool, n),
		rider:    make([]bool, n),
		riders:   make([][]int, n),
	}
	for i := range p.parent {
		p.parent[i] = -1
	}
	return p
}

// planPrefix builds the fork tree greedily: each scenario forks from
// the earlier-indexed scenario it shares the most leading days with
// (ties to the smallest index). The earliest-index tie-break makes the
// tree feasible by construction: divergence days are an ultrametric
// (two scenarios that each match a third through day d-1 match each
// other through day d-1), so a child is only attached to parent i when
// it shares strictly more days with i than with i's own ancestor —
// every checkpoint a run must take therefore lies at or after the day
// the run itself starts.
func planPrefix(scens []SweepScenario) prefixPlan {
	n := len(scens)
	p := planRoots(n)
	compiled := make([]*pandemic.Scenario, n)
	for i := range scens {
		if compiled[i] = scens[i].Scenario; compiled[i] == nil {
			compiled[i] = pandemic.Default()
		}
	}
	for i := 0; i < n; i++ {
		best := 0
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
			p.riders[j] = append(p.riders[j], i)
		}
	}
	// The checkpoint hand-off covers non-rider children only; riders are
	// serviced inside the host's own day loop.
	for j := 0; j < n; j++ {
		kept := p.children[j][:0]
		for _, c := range p.children[j] {
			if p.rider[c] {
				continue
			}
			kept = append(kept, c)
			if p.snapAt[j] == nil {
				p.snapAt[j] = make(map[int]bool)
			}
			p.snapAt[j][p.forkDay[c]] = true
		}
		p.children[j] = kept
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
	ck := &Checkpoint{
		Day:      timegrid.StudyDay(sd),
		Mobility: r.Mobility.Fork(),
		Matrix:   r.Matrix.Fork(),
	}
	if r.KPI != nil {
		ck.KPI = r.KPI.Fork()
	}
	return ck
}

// riderSpec describes a trace-equal scenario serviced inside a host
// run's day loop instead of getting a day loop of its own.
type riderSpec struct {
	idx     int
	forkDay int
	sc      SweepScenario
}

// riderRun is one rider outcome a host run produced: the rider's sweep
// result (or its attach-time error) plus the prefix days it inherited.
type riderRun struct {
	idx  int
	days int // fork provenance; 0 when the rider failed
	run  SweepRun
}

// errRiderUnattached guards an impossible-by-construction state: the
// planPrefix feasibility argument puts every rider's fork day at or
// after its host's start day, so a host loop always visits it.
var errRiderUnattached = errors.New("experiments: rider fork day precedes host start; plan infeasible")

// enginePool recycles day scratch, warm engines included, across the
// sweep's host runs. Rebind is bit-identical to NewEngine, and DayInto
// and DayAppend overwrite a scratch before each day, so reuse never
// changes output; get returns nil when empty and the caller builds
// fresh. Scratch from panicked runs is never returned (poisoned).
type enginePool struct {
	days freeList[dayScratch]
}

// dayScratch is a host run's day scratch: the buffer it simulates each
// day into, and the engine and record buffer its KPI fold shares with
// its riders'. Pooled, it grows once per concurrent day loop.
type dayScratch struct {
	buf   *mobsim.DayBuffer
	eng   *traffic.Engine
	cells []traffic.CellDay
}

// freeList is a mutex-guarded stack of reusable objects.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	return nil
}

func (l *freeList[T]) put(v *T) {
	if v == nil {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// riderState is a rider's stack inside its host's day loop: its own
// result set over the host's traces, folded on the host's engine.
type riderState struct {
	riderSpec
	r        *Results
	err      error
	attached bool
}

// attach starts the rider at its fork boundary sd (days [0, sd)
// consumed), after the same ctx/fault gates a standalone run passes:
// the host's KPI fold through those days is the rider's own, since
// their factors agree below the fork day.
func (rd *riderState) attach(ctx context.Context, fi *fault.Injector, host *Results, sd int) {
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

// runPrefixScenario executes one sweep entry on the serial study loop
// (runStudy — bit-identical to the streaming engine at any worker and
// shard count, see RunStreamingOn), optionally resuming from a forked
// checkpoint, capturing checkpoints at the requested day boundaries for
// this run's non-rider children and handing each to publish as soon as
// it is captured, and carrying the run's riders inline.
//
// A rider attaches at the boundary a checkpoint child would fork at and
// from there consumes the host's traces — bit-identical to its own by
// pandemic.Scenario.TraceEqual — into its own KPI fold on the host's
// traffic engine; its mobility folds are forked from the host's final
// state.
// Rider attach runs the same ctx/fault gates a standalone run would, so
// injected rider faults surface identically; a rider failure never
// touches the host. A host failure loses its riders' partial state —
// runPrefixScenario then reports no rider outcomes and the caller falls
// back to standalone day-0 runs, matching the children-of-a-failed-
// parent fallback (a panic mid-loop therefore fails the host run but
// only costs its riders the sharing, not their results).
//
// Every failure mode — a cancelled ctx, an injected fault.SweepRun
// fault, a panic anywhere in the scenario stack — lands in run.Err, so
// one poisoned scenario cannot take down its sweep.
func runPrefixScenario(ctx context.Context, w *World, cfg Config, fi *fault.Injector, sc SweepScenario, idx int, homes homesMap, start *Checkpoint, snapAt map[int]bool, publish func(sd int, ck *Checkpoint), riders []riderSpec, pool *enginePool) (run SweepRun, riderRuns []riderRun) {
	run.Name = sc.Name
	defer func() {
		if v := recover(); v != nil {
			run.Results, run.Headlines = nil, nil
			run.Err = stream.NewWorkerPanic("sweep", -1, -1, v)
			riderRuns = nil
		}
	}()
	if err := ctx.Err(); err != nil {
		run.Err = err
		return
	}
	if err := fi.Fire(fault.SweepRun, int64(idx)); err != nil {
		run.Err = err
		return
	}

	ds := pool.days.get()
	if ds == nil {
		ds = &dayScratch{buf: mobsim.NewDayBuffer()}
	}
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

	rs := make([]riderState, len(riders))
	for k, spec := range riders {
		rc := cfg
		rc.Scenario = spec.sc.Scenario
		rs[k] = riderState{riderSpec: spec, r: &Results{Dataset: w.bind(rc), Homes: homes}}
	}

	err := runStudy(ctx, fi, r, ds, startDay, snapAt, publish, rs)
	// Only a normal return gets here; a panic leaves ds to the GC.
	pool.days.put(ds)
	if err != nil {
		run.Err = err
		return run, nil
	}
	run.Results, run.Headlines = r, Headlines(r)
	// Finalize riders: the host's final mobility folds are each rider's
	// own (identical traces every day), so fork rather than re-fold.
	riderRuns = make([]riderRun, 0, len(rs))
	for k := range rs {
		rd := &rs[k]
		rr := riderRun{idx: rd.idx, days: rd.forkDay}
		rr.run.Name = rd.sc.Name
		switch {
		case rd.err != nil:
			rr.run.Err = rd.err
			rr.days = 0
		case !rd.attached:
			rr.run.Err = errRiderUnattached
			rr.days = 0
		default:
			rd.r.Mobility = r.Mobility.Fork()
			rd.r.Matrix = r.Matrix.Fork()
			rr.run.Results, rr.run.Headlines = rd.r, Headlines(rd.r)
		}
		riderRuns = append(riderRuns, rr)
	}
	return run, riderRuns
}

// ckKey addresses a stored checkpoint: the run that captured it and the
// day boundary it holds.
type ckKey struct{ parent, day int }

// ckStore hands forked checkpoints from parents to children, dropping
// each checkpoint after its last consumer (reference counted up front
// from the plan).
type ckStore struct {
	mu    sync.Mutex
	plan  *prefixPlan
	store map[ckKey]*Checkpoint
	refs  map[ckKey]int
}

func newCkStore(plan *prefixPlan) *ckStore {
	s := &ckStore{plan: plan, store: map[ckKey]*Checkpoint{}, refs: map[ckKey]int{}}
	for i := range plan.parent {
		if plan.parent[i] >= 0 && !plan.rider[i] {
			s.refs[ckKey{plan.parent[i], plan.forkDay[i]}]++
		}
	}
	return s
}

// put stores the checkpoint run i captured at study day day, if a run
// still awaits it.
func (s *ckStore) put(i, day int, ck *Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := (ckKey{i, day}); s.refs[k] > 0 {
		s.store[k] = ck
	}
}

// take forks run i's planned start checkpoint, or returns nil when the
// run is a root — or when its parent failed or was cancelled before
// capturing it, in which case the run falls back to a standalone
// day-0 run (per-run isolation is preserved over prefix reuse). The
// reference count drops either way, so abandoned checkpoints are freed.
func (s *ckStore) take(i int) *Checkpoint {
	p := s.plan.parent[i]
	if p < 0 || s.plan.forkDay[i] <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := ckKey{p, s.plan.forkDay[i]}
	ck := s.store[k]
	last := false
	if s.refs[k]--; s.refs[k] <= 0 {
		delete(s.store, k)
		delete(s.refs, k)
		last = true
	}
	if ck == nil {
		return nil
	}
	if last {
		// Hand the last consumer the stored checkpoint itself: nobody
		// else will read it, so the isolating fork-copy is pure waste
		// (most checkpoints have exactly one consumer).
		return ck
	}
	return ck.Fork()
}
