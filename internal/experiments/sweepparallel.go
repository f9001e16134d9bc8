package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/traffic"
)

// sweepMetrics are the sweep runner's handles, resolved once per sweep
// from scfg.Metrics (nil when metrics are off — no clock reads then).
type sweepMetrics struct {
	runs    *obs.Counter   // sweep.runs: scenario runs completed
	runNs   *obs.Histogram // sweep.run_ns: per-run wall time, one shard per worker
	queueNs *obs.Histogram // sweep.queue_wait_ns: how long each scenario queued behind the workers
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

// sweepWorker is the reusable per-worker state of a parallel sweep: a
// shared day-buffer recycle pool, the resettable sharded consumer
// wrappers and the rebindable KPI engine. Everything in it is scratch —
// reused allocations whose contents are rebuilt every run — so carrying
// it across scenario runs changes nothing about the results, only the
// allocation profile: after a worker's first scenario, later scenarios
// run on warm buffers, mergers and tower accumulators.
//
// A nil *sweepWorker is valid and means "no reuse": every accessor then
// falls back to fresh construction, which is how the single-run
// streaming path uses runStreamingStudyWith. A worker whose run failed
// must be discarded — its reused state may be partially consumed by the
// aborted run — and the sweep runners do, rebuilding a fresh worker for
// the next scenario.
type sweepWorker struct {
	pool *stream.BufferPool
	mob  *stream.Mobility
	mat  *stream.Matrix
	eng  *traffic.Engine
}

// newSweepWorker sizes the worker's buffer pool to one run's in-flight
// window so the steady state never falls back to allocation. The pool is
// instrumented here (not by the sources that later share it): after the
// first scenario warms it, every later draw should be a stream.pool hit.
func newSweepWorker(scfg stream.Config) *sweepWorker {
	scfg = scfg.WithDefaults()
	return &sweepWorker{pool: stream.NewBufferPool(scfg.Workers + scfg.Buffer).Instrument(scfg.Metrics)}
}

// bufferPool returns the worker's shared pool, or nil (private pool per
// source) without a worker.
func (ws *sweepWorker) bufferPool() *stream.BufferPool {
	if ws == nil {
		return nil
	}
	return ws.pool
}

// mobility returns a sharded mobility stage bound to a, reusing the
// worker's wrapper when it has one.
func (ws *sweepWorker) mobility(a *core.MobilityAnalyzer, shards int) *stream.Mobility {
	if ws == nil {
		return stream.NewMobility(a, shards)
	}
	if ws.mob == nil {
		ws.mob = stream.NewMobility(a, shards)
		return ws.mob
	}
	return ws.mob.Reset(a)
}

// matrix returns a sharded matrix stage bound to m, reusing the
// worker's wrapper when it has one.
func (ws *sweepWorker) matrix(m *core.MobilityMatrix, shards int) *stream.Matrix {
	if ws == nil {
		return stream.NewMatrix(m, shards)
	}
	if ws.mat == nil {
		ws.mat = stream.NewMatrix(m, shards)
		return ws.mat
	}
	return ws.mat.Reset(m)
}

// instantiate binds a scenario stack for the worker's next run, reusing
// (rebinding) the worker's traffic engine when it has one.
func (ws *sweepWorker) instantiate(w *World, cfg Config) *Dataset {
	if ws == nil {
		return w.Instantiate(cfg)
	}
	d := w.instantiate(cfg, ws.eng)
	ws.eng = d.Engine
	return d
}

// SweepOptions tunes RunSweepParallelOpts beyond the worker count.
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
	// SharePrefix switches the sweep to the copy-on-divergence executor
	// (runSweepShared): scenarios are grouped by divergence day
	// (pandemic.Scenario.DivergenceFrom), each shared prefix is
	// simulated once, checkpointed at the fork day and forked per
	// scenario. Results are bit-identical to the unshared path; runs
	// gain ForkedFrom/PrefixDays provenance. Multi-scenario sweeps only
	// — a single scenario has no prefix to share.
	SharePrefix bool
}

// RunSweepParallel is RunSweep executing the scenario stacks
// concurrently: up to parallel workers claim scenarios from the input
// order, each running the full streaming study over the one shared
// immutable World. Results land in index-addressed slots, so the output
// is re-sequenced to the input order deterministically — and because
// every scenario run is itself deterministic in (world, seed, scenario)
// and shares only immutable state (the World, the cached February
// homes), the output is bit-identical to serial RunSweep at any worker
// count (asserted by TestParallelSweepMatchesSerial under -race).
//
// Each worker owns a sweepWorker: a day-buffer pool, resettable sharded
// consumer stages and a rebindable KPI engine threaded through its
// consecutive runs, so the per-scenario steady state stays at the PR 2
// zero-allocation profile instead of paying a fresh warm-up per
// scenario. This is the capacity–computation trade of the sweep: bounded
// per-worker memory (one in-flight window of day buffers each) buys
// concurrent recomputation over the world we refuse to rebuild.
//
// Failure semantics mirror RunSweep: a run that panics or errors fails
// alone (its worker discards its reused state and rebuilds), the other
// N-1 complete, and the joined per-run failures come back as the error.
// Cancelling ctx stops workers claiming new scenarios; every unstarted
// slot gets Err = ctx.Err() and in-flight runs drain their pipelines
// before returning.
//
// One observable difference from the serial runner: the returned
// Results carry no live traffic engine (Results.Dataset.Engine is nil)
// — engines are per-worker scratch rebound from scenario to scenario,
// so exporting one would alias every run of a worker to its last
// scenario. The analyzers (Results.KPI included) are complete either
// way; callers that want to replay KPI generation for one run should
// Instantiate a fresh stack for that scenario.
//
// parallel < 1 counts as 1. Note the total goroutine budget multiplies:
// each of the parallel scenario runs drives its own streaming engine
// with scfg.Workers workers, so sweeps that set parallel > 1 usually
// want scfg.Workers = 1 (see PERFORMANCE.md, "Parallel sweeps").
func RunSweepParallel(ctx context.Context, w *World, cfg Config, scfg stream.Config, scens []SweepScenario, parallel int) ([]SweepRun, error) {
	return RunSweepParallelOpts(ctx, w, cfg, scfg, scens, SweepOptions{Parallel: parallel})
}

// RunSweepParallelOpts is RunSweepParallel with the full option set
// (per-run completion hook for journaling).
func RunSweepParallelOpts(ctx context.Context, w *World, cfg Config, scfg stream.Config, scens []SweepScenario, opt SweepOptions) ([]SweepRun, error) {
	if len(scens) == 0 {
		// Nothing to run. runSweepShared's ready queue closes on the last
		// completion, so it must never see an empty list.
		return nil, nil
	}
	parallel := min(max(opt.Parallel, 1), len(scens))

	var onRunMu sync.Mutex
	notify := func(i int, run SweepRun) {
		if opt.OnRun == nil {
			return
		}
		onRunMu.Lock()
		defer onRunMu.Unlock()
		opt.OnRun(i, run)
	}

	if opt.SharePrefix && len(scens) > 1 {
		return runSweepShared(ctx, w, cfg, scfg, scens, parallel, notify)
	}

	// The February pass is world-cached and scenario-invariant; force it
	// before the fan-out so no worker repeats it (sync.Once would serialize
	// them against each other anyway — this just makes the cost visible in
	// one place).
	homes := w.Homes()

	m := newSweepMetrics(scfg.Metrics, parallel)
	var fanOut time.Time
	if m != nil {
		fanOut = time.Now()
	}

	out := make([]SweepRun, len(scens))
	var next atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parallel; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ws := newSweepWorker(scfg)
			var runSh *obs.HistShard
			if m != nil {
				runSh = m.runNs.Shard(p)
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(scens) {
					return
				}
				var t0 time.Time
				if m != nil {
					// Queue wait: how long this scenario sat behind the
					// worker fleet before being claimed.
					t0 = time.Now()
					m.queueNs.Observe(int64(t0.Sub(fanOut)))
				}
				r := runScenario(ctx, w, cfg, scfg, scens[i], i, homes, ws)
				if m != nil {
					runSh.Observe(int64(time.Since(t0)))
					m.runs.Inc()
				}
				if r.Err != nil {
					// The aborted run may have left the worker's reused
					// buffers, mergers or engine partially consumed;
					// never thread them into the next scenario.
					ws = newSweepWorker(scfg)
				} else {
					// Detach the worker's shared engine from the stored
					// stack: it is about to be rebound to the worker's next
					// scenario, so leaving it on the Dataset would hand
					// every run an engine bound to whichever scenario its
					// worker finished last (and share one scratch across
					// runs). Callers replaying KPI from a sweep result
					// should Instantiate a fresh stack for that run.
					r.Results.Dataset.Engine = nil
				}
				out[i] = r
				notify(i, r)
			}
		}(p)
	}
	wg.Wait()
	if m != nil {
		m.builds.Set(WorldBuildCount())
	}
	return out, sweepErr(out)
}
