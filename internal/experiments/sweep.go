package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/stats"
	"repro/internal/stream"
)

// homesMap is the World's shared February home-detection result,
// threaded into every scenario run.
type homesMap = map[popsim.UserID]core.Home

// SweepScenario is one named entry of a scenario sweep. A nil Scenario
// means the calibrated default timeline.
type SweepScenario struct {
	Name     string
	Scenario *pandemic.Scenario
}

// SweepRun is the outcome of one scenario of a sweep. A failed run —
// its stack panicked, a fault was injected, or the sweep was cancelled
// before it ran — has Err set and nil Results/Headlines; the other
// runs of the sweep complete normally (per-run isolation,
// RELIABILITY.md). Filter failed runs out before tabulating
// (SweepTable assumes complete headline sets).
type SweepRun struct {
	Name      string
	Results   *Results
	Headlines []Headline
	Err       error

	// ForkedFrom and PrefixDays record copy-on-divergence provenance
	// (SweepOptions.SharePrefix): when the run was forked from another
	// scenario's checkpoint instead of simulating from day 0, ForkedFrom
	// names that scenario and PrefixDays counts the shared study days it
	// skipped. Zero values mean a standalone day-0 run. Provenance only
	// — the results are bit-identical either way.
	ForkedFrom string
	PrefixDays int
}

// SweepOptions tunes RunSweepParallelOpts.
type SweepOptions struct {
	// Parallel is the worker count, clamped to [1, len(scens)]. Every
	// count runs the same worker-pool loop.
	Parallel int
	// OnRun, when non-nil, observes every finished run — including
	// failed ones — as soon as its slot completes, before the sweep
	// returns. Calls are serialized by the runner (no caller locking)
	// but arrive in completion order, not input order; i is the run's
	// index in scens. cmd/mnosweep journals completed runs through this
	// hook so an interrupted sweep can resume.
	OnRun func(i int, run SweepRun)
	// SharePrefix plans the sweep copy-on-divergence (planPrefix):
	// scenarios are grouped by divergence day
	// (pandemic.Scenario.DivergenceFrom), each shared prefix is
	// simulated once, checkpointed at the fork day and forked per
	// scenario, and trace-equal leaves ride their host's day loop.
	// Without it every scenario runs from day 0 (planRoots), which makes
	// the unshared sweep the verification mode for the shared one.
	// Results are bit-identical either way; shared runs gain
	// ForkedFrom/PrefixDays provenance.
	SharePrefix bool
}

// sweepMetrics are the sweep runner's handles, resolved once per sweep
// from scfg.Metrics (nil when metrics are off — no clock reads then).
type sweepMetrics struct {
	runs    *obs.Counter   // sweep.runs: scenario runs completed
	runNs   *obs.Histogram // sweep.run_ns: per-day-loop wall time, one shard per worker
	queueNs *obs.Histogram // sweep.queue_wait_ns: how long each day loop queued behind the workers
	builds  *obs.Gauge     // sweep.world_builds: process-wide World builds (should stay at 1 per sweep)

	// Copy-on-divergence counters (SharePrefix sweeps only).
	prefixSaved *obs.Counter // sweep.prefix_days_saved: study days skipped by forking checkpoints
	forks       *obs.Counter // sweep.checkpoint_forks: runs started from a forked checkpoint
}

func newSweepMetrics(r *obs.Registry, parallel int) *sweepMetrics {
	if r == nil {
		return nil
	}
	return &sweepMetrics{
		runs:        r.Counter("sweep.runs"),
		runNs:       r.Histogram("sweep.run_ns", parallel),
		queueNs:     r.Histogram("sweep.queue_wait_ns", 1),
		builds:      r.Gauge("sweep.world_builds"),
		prefixSaved: r.Counter("sweep.prefix_days_saved"),
		forks:       r.Counter("sweep.checkpoint_forks"),
	}
}

// RunSweepParallelOpts executes every scenario over the shared world
// and extracts the headline statistics per run. cfg carries the per-run
// knobs (TopN, SkipKPI, …); its Scenario field is ignored — the sweep
// entries decide. The world is built exactly once by the caller; the
// sweep never constructs another, and the February home-detection pass
// — scenario-invariant, like everything else in the world — runs once
// and is shared by every run. Of scfg only the metrics registry and the
// fault injector apply: every run executes the serial study-window day
// loop RunStandardOn uses.
//
// Runs share the world's seed, so scenarios are compared on *paired*
// draws: every agent keeps its home, anchors, device and relocation
// candidacy across runs, and only the behavioural response differs.
//
// The sweep is a fork tree (prefixPlan) executed by up to opt.Parallel
// workers over a ready queue: a scenario becomes ready when the run it
// forks from has completed, and roots are ready immediately. Scheduling
// order cannot influence results — every run is deterministic in
// (world, scenario, start checkpoint) and checkpoints are deterministic
// in (world, parent scenario, day) — so the output is bit-identical at
// any worker count and with or without opt.SharePrefix (asserted by
// TestParallelSweepMatchesSerial under -race).
//
// Failures are isolated per run: a scenario that panics or hits an
// injected fault gets its Err set while the others complete, and a
// failed or cancelled parent yields no checkpoints, so its children —
// riders included — fall back to standalone day-0 runs. The returned
// slice always has one entry per scenario, in input order; the error is
// nil iff every run succeeded, else the joined per-run failures.
// Cancelling ctx marks the not-yet-run scenarios with ctx.Err().
//
// The returned Results carry no live traffic engine
// (Results.Dataset.Engine is nil): warm engines are recycled from run to
// run, so exporting one would alias a run to whichever scenario rebound
// it last. The analyzers (Results.KPI included) are complete; callers
// that want to replay KPI generation for one run should Instantiate a
// fresh stack for that scenario.
func RunSweepParallelOpts(ctx context.Context, w *World, cfg Config, scfg stream.Config, scens []SweepScenario, opt SweepOptions) ([]SweepRun, error) {
	if len(scens) == 0 {
		// Nothing to run. The ready queue closes on the last completion,
		// so it must never see an empty list.
		return nil, nil
	}
	parallel := min(max(opt.Parallel, 1), len(scens))
	plan := planRoots(len(scens))
	if opt.SharePrefix {
		plan = planPrefix(scens)
	}
	homes := w.Homes()
	store := newCkStore(&plan)
	pool := &enginePool{}
	out := make([]SweepRun, len(scens))
	m := newSweepMetrics(scfg.Metrics, parallel)

	// finish post-processes one completed run (host, rider, or rider
	// fallback): record fork provenance, bump the sharing counters,
	// stash the checkpoints its children await, detach the pooled
	// engine from the stored stack and report the run to opt.OnRun.
	var onRunMu sync.Mutex
	finish := func(i int, run SweepRun, prefixDays int, snaps map[int]*Checkpoint) {
		if run.Err == nil {
			if prefixDays > 0 {
				run.ForkedFrom = scens[plan.parent[i]].Name
				run.PrefixDays = prefixDays
				if m != nil {
					m.forks.Inc()
					m.prefixSaved.Add(int64(prefixDays))
				}
			}
			store.put(i, snaps)
			run.Results.Dataset.Engine = nil
		}
		out[i] = run
		if opt.OnRun != nil {
			onRunMu.Lock()
			opt.OnRun(i, run)
			onRunMu.Unlock()
		}
		if m != nil {
			m.runs.Inc()
		}
	}

	// riderSpecs materializes run i's planned riders.
	riderSpecs := func(i int) []riderSpec {
		rs := plan.riders[i]
		if len(rs) == 0 {
			return nil
		}
		specs := make([]riderSpec, len(rs))
		for k, ri := range rs {
			specs[k] = riderSpec{idx: ri, forkDay: plan.forkDay[ri], sc: scens[ri]}
		}
		return specs
	}

	// execute runs host i with its riders inline and returns every
	// scenario index it settled. A failed host reports no rider
	// outcomes; its riders then fall back to standalone day-0 runs,
	// exactly as the children of a failed checkpoint parent do.
	execute := func(i int) []int {
		start := store.take(i)
		prefixDays := 0
		if start != nil {
			prefixDays = int(start.Day)
		}
		run, riderRuns, snaps := runPrefixScenario(ctx, w, cfg, scfg.Fault, scens[i], i, homes, start, plan.snapAt[i], riderSpecs(i), pool)
		finish(i, run, prefixDays, snaps)
		done := append(make([]int, 0, 1+len(plan.riders[i])), i)
		if run.Err == nil {
			for _, rr := range riderRuns {
				finish(rr.idx, rr.run, rr.days, nil)
				done = append(done, rr.idx)
			}
		} else {
			for _, ri := range plan.riders[i] {
				frun, _, _ := runPrefixScenario(ctx, w, cfg, scfg.Fault, scens[ri], ri, homes, nil, nil, nil, pool)
				finish(ri, frun, 0, nil)
				done = append(done, ri)
			}
		}
		return done
	}

	// Ready queue over the fork tree. The channel holds every index at
	// most once (each has one parent), so len(scens) capacity never
	// blocks a producer; the final completion closes it. Riders are
	// settled inside their host's run and never queued.
	ready := make(chan int, len(scens))
	for i := range scens {
		if !plan.rider[i] && (plan.parent[i] < 0 || plan.forkDay[i] <= 0) {
			ready <- i
		}
	}
	var (
		fanOut    time.Time
		completed int
		compMu    sync.Mutex
	)
	if m != nil {
		fanOut = time.Now()
	}
	complete := func(i int) {
		for _, c := range plan.children[i] {
			if plan.forkDay[c] > 0 {
				ready <- c
			}
		}
		compMu.Lock()
		completed++
		if completed == len(scens) {
			close(ready)
		}
		compMu.Unlock()
	}

	var wg sync.WaitGroup
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var runSh *obs.HistShard
			if m != nil {
				runSh = m.runNs.Shard(p)
			}
			for i := range ready {
				var t0 time.Time
				if m != nil {
					// Queue wait: how long this day loop sat behind the
					// worker fleet before being claimed.
					t0 = time.Now()
					m.queueNs.Observe(int64(t0.Sub(fanOut)))
				}
				done := execute(i)
				if m != nil {
					runSh.Observe(int64(time.Since(t0)))
				}
				// A host settles its riders too; every settled index
				// counts toward completion (riders have no children).
				for _, idx := range done {
					complete(idx)
				}
			}
		}(p)
	}
	wg.Wait()
	if m != nil {
		m.builds.Set(WorldBuildCount())
	}
	return out, sweepErr(out)
}

// sweepErr joins the failures of a sweep into one error (nil when every
// run completed), naming each failed run.
func sweepErr(runs []SweepRun) error {
	var errs []error
	for i := range runs {
		if runs[i].Err != nil {
			errs = append(errs, fmt.Errorf("sweep run %q: %w", runs[i].Name, runs[i].Err))
		}
	}
	return errors.Join(errs...)
}

// SweepTable tabulates a sweep as headline rows × scenario columns,
// keeping only the headlines present in every run (KPI headlines drop
// out of mobility-only sweeps). Failed
// runs (Err set, no headlines) must be filtered out by the caller
// first.
func SweepTable(runs []SweepRun) stats.Table {
	t := stats.Table{Title: "scenario sweep"}
	if len(runs) == 0 {
		return t
	}
	for _, run := range runs {
		t.ColNames = append(t.ColNames, run.Name)
	}
	byName := make([]map[string]float64, len(runs))
	for i, run := range runs {
		byName[i] = make(map[string]float64, len(run.Headlines))
		for _, h := range run.Headlines {
			byName[i][h.Name] = h.Value
		}
	}
	for _, h := range runs[0].Headlines {
		row := make([]float64, len(runs))
		ok := true
		for i := range runs {
			v, has := byName[i][h.Name]
			if !has {
				ok = false
				break
			}
			row[i] = v
		}
		if ok {
			t.AddRow(h.Name, row)
		}
	}
	return t
}
