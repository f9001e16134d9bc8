// Package repro is a full, self-contained Go reproduction of
// "A Characterization of the COVID-19 Pandemic Impact on a Mobile
// Network Operator Traffic" (Lutu, Perino, Bagnulo, Frias-Martinez,
// Khangosstar — ACM IMC 2020).
//
// The paper is a measurement study over a UK operator's proprietary
// control-plane and radio-KPI feeds; this module substitutes a complete
// synthetic United Kingdom and synthetic MNO (see DESIGN.md) and
// re-implements the paper's entire analysis pipeline on top of it:
// mobility entropy and radius of gyration, night-time home detection,
// mobility matrices, and the per-cell KPI delta statistics behind every
// figure.
//
// Entry points:
//
//   - internal/experiments: one runner per paper figure (Fig2 … Fig12),
//     with shape checks against the published results. RunStandard is
//     the serial pipeline; RunStreamingOn is the same pipeline on the
//     sharded streaming engine, bit-identical at any worker count. The
//     stack splits into a scenario-independent World (census + radio +
//     population, built once) and per-scenario run stacks
//     (World.Instantiate); RunSweepParallelOpts runs many scenarios over
//     one shared World and SweepTable compares their headlines.
//   - internal/stream: the sharded, backpressured streaming analytics
//     engine (worker-pool day production, hash-partitioned shard
//     stages, deterministic merge) every scaling path builds on.
//   - internal/scenario: declarative JSON scenario specs and the named
//     registry (default-covid, no-pandemic, early-lockdown, …) behind
//     every -scenario flag; lossless round trips to pandemic.Scenario
//     (see SCENARIOS.md).
//   - cmd/figures: regenerate all figures and print PASS/FAIL checks.
//   - cmd/mnosim: export the synthetic datasets as CSV (with -raw, the
//     replayable trace/KPI/event feed directory; -scenario selects the
//     behavioural timeline).
//   - cmd/mnostream: stream a feed directory — or the simulator inline,
//     under any -scenario — through the engine and emit rolling daily
//     KPI/mobility summaries (-workers / -shards).
//   - cmd/mnosweep: run a scenario set over one shared world — serially
//     or with -parallel N concurrent runs (bit-identical output) — and
//     print the headline comparison table plus, with -baseline NAME,
//     the per-series delta table against that run (-list shows the
//     registry).
//   - cmd/analyze: replay a feed directory (CSV or columnar) through
//     the streaming engine and print the home-detection census fit and
//     the national mobility table, without re-simulating.
//   - cmd/ablate, cmd/calibrate, cmd/mobilityrpt: ad-hoc ablation
//     sweeps (scenario ablation rides the sweep runner), calibration and
//     mobility reports.
//   - internal/obs: the nil-safe metrics layer behind -metrics (live
//     HTTP JSON + pprof) and -metrics-out (stable obs/v1 snapshots,
//     diffable with cmd/benchdiff -obs) on mnostream and mnosweep;
//     PERFORMANCE.md, "Observability", catalogs the metrics.
//   - examples/: runnable walk-throughs of the public pipeline.
//
// The benchmarks in bench_test.go regenerate every table and figure (one
// benchmark each), include the ablations called out in DESIGN.md, and
// track the streaming engine's speedup over the serial pipeline
// (BenchmarkStreamWorkers1/4/8 vs BenchmarkRunStandardSerial).
//
// Failure semantics are documented in RELIABILITY.md: every runner is
// context-cancellable (SIGINT/SIGTERM exits 130 with partial outputs
// flushed), panics in pipeline goroutines surface as typed
// stream.WorkerPanic errors, sweep runs fail independently, feed
// replays run strict or lenient (-lenient), interrupted sweeps resume
// from a run journal (mnosweep -journal/-resume), and internal/fault
// provides deterministic fault injection behind the -fault flags.
//
// The per-day hot path is zero-allocation in steady state: arena-backed
// day buffers (mobsim.DayBuffer), engine-owned KPI scratch
// (traffic.Engine.DayAppend), reusable per-user merge scratch
// (core.VisitMerger) and batch recycling through the streaming engine
// (stream.DayBatch.Release). PERFORMANCE.md documents the guarantees,
// the observability and profiling workflow (-metrics/-metrics-out,
// -cpuprofile/-memprofile) and scripts/bench.sh, which snapshots the
// perf trajectory.
package repro
