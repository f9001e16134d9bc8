package experiments

import (
	"context"

	"repro/internal/mobsim"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// DayTap observes one simulated day of a RunStreamingOn run: the day's
// traces and the run's KPI records for it, which are nil before the
// study window and when the dataset has no traffic engine. Both slices
// are the run's scratch: valid only during the call, and read-only.
//
// Every simulated day reaches each tap once, in ascending order: days
// before the study window from the February pass, study days from the
// study pass after the run's own folds. Taps run serially in the
// engine's merge stage, so they need no locking. A tap may drive the
// dataset's own engine only before the study window: the study pass
// produces on d.Engine concurrently with its merge stage.
type DayTap func(day timegrid.SimDay, traces []mobsim.DayTrace, cells []traffic.CellDay)

// RunStreamingOn executes the canonical full pipeline over an
// instantiated stack on the sharded streaming engine, in two passes: a
// February-only pass to detect homes (so the matrix cohort, chosen by
// detected homes as in the paper, exists before the study window
// starts), then mobility metrics, the Inner-London mobility matrix and
// the KPI analysis over the study window. Day production (simulation
// and KPI generation) runs ahead on a worker pool, the per-user
// analysis work is partitioned across shards, and shard results are
// merged deterministically. The returned Results are bit-identical for
// every worker and shard count (scfg), including one worker, and to a
// sweep run of the same scenario. taps see the same pass (see DayTap).
//
// ctx cancels the run: production drains, pooled buffers are recycled
// and ctx.Err() is returned (RELIABILITY.md). A clean run of the
// default engine never errors; with fault injection armed
// (stream.Config.Fault) or a cancelled ctx, the error carries the
// failing stage (stream.WorkerPanic for panics, fault.Error for
// injected failures).
func RunStreamingOn(ctx context.Context, d *Dataset, scfg stream.Config, taps ...DayTap) (*Results, error) {
	scfg = scfg.WithDefaults()
	// One window of day stores serves both passes: Engine.Run returns
	// only after every batch it took is released, so the study pass
	// draws the stores the February pass already grew.
	pool := stream.NewBufferPool(scfg.Workers + scfg.Buffer).Instrument(scfg.Metrics)

	// Pass 1: February only, for home detection, sharded by user.
	homes := stream.NewHomes(d.Topology, scfg.Shards)
	feb := stream.NewEngine(scfg)
	feb.AddTraceSharder(homes)
	if len(taps) > 0 {
		feb.AddTraceConsumer(&tapStage{taps: taps, limit: timegrid.StudyDayOffset})
	}
	if err := feb.Run(ctx, stream.NewSimSourcePooled(ctx, pool, d.Sim, nil, 0, timegrid.FebruaryDays, scfg)); err != nil {
		return nil, err
	}

	// Pass 2: the study window, with sharded mobility/matrix stages and
	// the exact KPI analyzer in the merge stage.
	r := newResults(d, homes.Detect())
	study := stream.NewEngine(scfg)
	study.AddTraceSharder(stream.NewMobility(r.Mobility, scfg.Shards))
	study.AddTraceSharder(stream.NewMatrix(r.Matrix, scfg.Shards))
	if r.KPI != nil {
		study.AddKPIConsumer(r.KPI)
	}
	if len(taps) > 0 {
		ts := &tapStage{taps: taps, limit: timegrid.SimDays, withCells: r.KPI != nil}
		study.AddTraceConsumer(ts)
		if ts.withCells {
			study.AddKPIConsumer(tapCells{ts})
		}
	}
	src := stream.NewSimSourcePooled(ctx, pool, d.Sim, d.Engine,
		timegrid.SimDay(timegrid.StudyDayOffset), timegrid.SimDays, scfg)
	if err := study.Run(ctx, src); err != nil {
		return nil, err
	}
	return r, nil
}

// tapStage runs taps in an engine's merge stage on the days before
// limit. Trace consumers run before KPI consumers, so withCells it holds
// each day's traces until its tapCells face receives the day's cells.
type tapStage struct {
	taps      []DayTap
	limit     timegrid.SimDay
	withCells bool
	traces    []mobsim.DayTrace
}

func (s *tapStage) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	if s.traces = traces; !s.withCells {
		s.run(day, nil)
	}
}

func (s *tapStage) run(day timegrid.SimDay, cells []traffic.CellDay) {
	if day >= s.limit {
		return
	}
	for _, tap := range s.taps {
		tap(day, s.traces, cells)
	}
}

// tapCells is a tapStage's KPI consumer.
type tapCells struct{ *tapStage }

func (c tapCells) ConsumeDay(day timegrid.SimDay, cells []traffic.CellDay) { c.run(day, cells) }
