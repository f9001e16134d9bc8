package experiments

import (
	"context"

	"repro/internal/stream"
	"repro/internal/timegrid"
)

// RunStreamingOn executes the canonical full pipeline over an
// instantiated stack — the same two passes as RunStandardOn — on the
// sharded streaming engine: day production (simulation and KPI
// generation) runs ahead on a worker pool, the per-user analysis work
// is partitioned across shards, and shard results are merged
// deterministically. The returned Results are bit-identical to
// RunStandard at the same seed for every worker and shard count
// (scfg), including one worker.
//
// ctx cancels the run: production drains, pooled buffers are recycled
// and ctx.Err() is returned (RELIABILITY.md). A clean run of the
// default engine never errors; with fault injection armed
// (stream.Config.Fault) or a cancelled ctx, the error carries the
// failing stage (stream.WorkerPanic for panics, fault.Error for
// injected failures).
func RunStreamingOn(ctx context.Context, d *Dataset, scfg stream.Config) (*Results, error) {
	scfg = scfg.WithDefaults()
	// One window of day stores serves both passes: Engine.Run returns
	// only after every batch it took is released, so the study pass
	// draws the stores the February pass already grew.
	pool := stream.NewBufferPool(scfg.Workers + scfg.Buffer).Instrument(scfg.Metrics)

	// Pass 1: February only, for home detection, sharded by user.
	homes := stream.NewHomes(d.Topology, scfg.Shards)
	feb := stream.NewEngine(scfg)
	feb.AddTraceSharder(homes)
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
	src := stream.NewSimSourcePooled(ctx, pool, d.Sim, d.Engine,
		timegrid.SimDay(timegrid.StudyDayOffset), timegrid.SimDays, scfg)
	if err := study.Run(ctx, src); err != nil {
		return nil, err
	}
	return r, nil
}
