// Package stream is the sharded streaming analytics engine: it turns the
// batch pipeline of internal/experiments into a parallel, backpressured
// one without changing a single output bit.
//
// A Source delivers the three record kinds of the paper's measurement
// system — per-user day traces (§2.3), per-cell daily KPI records (§2.4)
// and control-plane events (§2.2) — one simulated day at a time, either
// from the live simulator (SimSource, which computes days ahead on a
// worker pool and re-sequences them) or from persisted feeds (see
// internal/feeds). The Engine partitions each day's records across a
// fixed number of logical shards by stable hash (user ID for traces and
// events, cell ID for KPI records), runs the per-shard work on a bounded
// worker pool, and then merges shard results deterministically.
//
// Three properties hold by construction and are what every consumer in
// this package is designed around:
//
//   - Shard-count invariance: per-shard state only ever accumulates
//     exactly mergeable quantities (integer counts, disjoint per-user
//     tallies, value multisets) or per-record results folded back in
//     canonical input order, so outputs do not depend on Config.Shards.
//   - Worker-count invariance: a shard's records are processed by one
//     goroutine at a time in input order, and merges run serially in
//     shard order, so outputs do not depend on Config.Workers.
//   - Serial equivalence: the merge paths perform the same floating
//     point operations in the same order as the serial analyzers in
//     internal/core, so experiments.RunStreamingOn is bit-identical to
//     the serial day loop of an experiments sweep run over the same
//     world and scenario.
//
// Backpressure is bounded channels end to end: a SimSource keeps at most
// Workers+Buffer days in flight, counting the day the engine is on, and
// the engine finishes every shard of day d before merging it, releasing
// its batch and pulling day d+1.
//
// Engines and sources are one-run objects, but cheap ones: everything
// expensive (the census, topology and population behind a SimSource's
// simulator) lives in the scenario-independent experiments.World, so
// streaming several scenarios (experiments.RunStreamingOn over
// World.Instantiate) runs engine + source pairs per scenario over the
// same shared world. Day buffers recycle through DayBatch.Release into a
// BufferPool, which consecutive sources may share
// (NewSimSourcePooled): RunStreamingOn's February and study passes draw
// from one pool, so a run warms a single window of day stores.
package stream
