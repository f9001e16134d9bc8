package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mobsim"
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

	// ForkedFrom and PrefixDays record copy-on-divergence provenance:
	// when the run was forked from another scenario's checkpoint instead
	// of simulating from day 0, ForkedFrom names that scenario and
	// PrefixDays counts the shared study days it skipped. Zero values
	// mean a day-0 run. Provenance only — the results are bit-identical
	// to a standalone run of the scenario.
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
	// Deprecated: ignored; every sweep shares prefixes. Removed once bench/ stops setting it.
	SharePrefix bool
}

// sweepMetrics are the sweep runner's handles, resolved once per sweep
// from scfg.Metrics (nil when metrics are off — no clock reads then).
type sweepMetrics struct {
	runs    *obs.Counter   // sweep.runs: scenario runs completed
	runNs   *obs.Histogram // sweep.run_ns: per-day-loop wall time, one shard per worker
	queueNs *obs.Histogram // sweep.queue_wait_ns: how long each day loop queued behind the workers
	builds  *obs.Gauge     // sweep.world_builds: process-wide World builds (should stay at 1 per sweep)

	// Copy-on-divergence counters.
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
// loop runStudy.
//
// Runs share the world's seed, so scenarios are compared on *paired*
// draws: every agent keeps its home, anchors, device and relocation
// candidacy across runs, and only the behavioural response differs.
//
// The sweep is planned copy-on-divergence (planPrefix): scenarios are
// grouped by divergence day (pandemic.Scenario.DivergenceFrom), each
// shared prefix is simulated once, checkpointed at the fork day and
// forked per scenario, and trace-equal leaves ride their host's day
// loop. The fork tree is executed by up to opt.Parallel workers over a
// ready queue: roots are ready immediately, and a scenario becomes
// ready as soon as the run it forks from has captured its checkpoint,
// while that run goes on with its later days. Scheduling order cannot
// influence results — every run is deterministic in (world, scenario,
// start checkpoint) and checkpoints are deterministic in (world, parent
// scenario, day) — so the output is bit-identical at any worker count
// and to each scenario run alone (asserted by
// TestParallelSweepMatchesSerial under -race).
//
// Failures are isolated per run: a scenario that panics or hits an
// injected fault gets its Err set while the others complete. A failed
// or cancelled parent captures no more checkpoints, so its children
// that had not forked yet — riders included — fall back to standalone
// day-0 runs once it returns. The returned
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
	plan := planPrefix(scens)
	// The February pass simulates into a day buffer that then joins the
	// pool, so the first run reuses it.
	pool := &scratchPool{}
	buf := mobsim.NewDayBuffer()
	homes := w.Homes(buf)
	pool.put(&dayScratch{buf: buf})
	out := make([]SweepRun, len(scens))
	m := newSweepMetrics(scfg.Metrics, parallel)

	// Ready queue over the fork tree: each job is a run and the
	// checkpoint it starts from (nil = day 0). The channel holds every
	// index at most once (each has one parent), so len(scens) capacity
	// never blocks a producer; the final completion closes it. Riders
	// are settled inside their host's run and never queued.
	type job struct {
		idx   int
		start *Checkpoint
	}
	ready := make(chan job, len(scens))
	for i := range scens {
		if plan.parent[i] < 0 {
			ready <- job{i, nil}
		}
	}
	// queued[c] marks a forked child already pushed by its parent's
	// publish. Only the worker running that parent reads or writes it.
	queued := make([]bool, len(scens))

	// finish post-processes one completed run (host, rider, or rider
	// fallback): record fork provenance, bump the sharing counters,
	// detach the pooled engine from the stored stack and report the run
	// to opt.OnRun.
	var onRunMu sync.Mutex
	finish := func(i int, run SweepRun) {
		if run.Err == nil {
			if run.PrefixDays > 0 {
				run.ForkedFrom = scens[plan.parent[i]].Name
				if m != nil {
					m.forks.Inc()
					m.prefixSaved.Add(int64(run.PrefixDays))
				}
			}
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

	// execute runs host j.idx with its riders inline. At each day
	// boundary where non-rider children fork, the host captures one
	// checkpoint and queues those children at once: every child but the
	// last gets a fork, taken before the original is queued, and the
	// last gets the original (nobody else will read it). A failed host
	// settles no riders; they fall back to standalone day-0 runs, as
	// the children of a failed checkpoint parent do.
	execute := func(j job) {
		i := j.idx
		var riders []rider
		for _, c := range plan.children[i] {
			if plan.rider[c] {
				riders = append(riders, rider{idx: c, forkDay: plan.forkDay[c], sc: scens[c]})
			}
		}
		publish := func(sd int, r *Results) {
			var ck *Checkpoint
			last := -1
			for _, c := range plan.children[i] {
				if plan.rider[c] || plan.forkDay[c] != sd {
					continue
				}
				if ck == nil {
					ck = captureCheckpoint(r, sd)
				} else {
					ready <- job{last, ck.Fork()}
				}
				last, queued[c] = c, true
			}
			if ck != nil {
				ready <- job{last, ck}
			}
		}
		run := runPrefixScenario(ctx, w, cfg, scfg.Fault, scens[i], i, homes, j.start, publish, riders, pool)
		finish(i, run)
		for k := range riders {
			rd := &riders[k]
			if run.Err == nil {
				finish(rd.idx, rd.settle(run.Results))
			} else {
				finish(rd.idx, runPrefixScenario(ctx, w, cfg, scfg.Fault, rd.sc, rd.idx, homes, nil, nil, nil, pool))
			}
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
	// complete counts host i and its riders as settled and queues, to
	// run from day 0, the children i's publish did not: those whose
	// checkpoint a failed or cancelled i never captured.
	complete := func(i int) {
		settled := 1
		for _, c := range plan.children[i] {
			switch {
			case plan.rider[c]:
				settled++
			case !queued[c]:
				ready <- job{c, nil}
			}
		}
		compMu.Lock()
		completed += settled
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
			for j := range ready {
				var t0 time.Time
				if m != nil {
					// Queue wait: how long this day loop sat behind the
					// worker fleet before being claimed.
					t0 = time.Now()
					m.queueNs.Observe(int64(t0.Sub(fanOut)))
				}
				execute(j)
				if m != nil {
					runSh.Observe(int64(time.Since(t0)))
				}
				complete(j.idx)
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
