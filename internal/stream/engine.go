package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/signaling"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// DefaultShards is the logical partition count used when Config.Shards
// is unset. Outputs are shard-count invariant for every consumer in this
// package; a fixed default merely keeps profiles comparable across runs.
const DefaultShards = 8

// Config sizes the engine.
type Config struct {
	// Workers bounds the goroutines of each pipeline stage: a source
	// built from this config uses up to Workers producers, and the
	// engine up to Workers shard tasks, so a full pipeline peaks at
	// about twice this many runnable goroutines. <= 0 means GOMAXPROCS.
	Workers int
	// Shards is the number of logical partitions. <= 0 means
	// DefaultShards.
	Shards int
	// Buffer is the number of extra day batches a source may compute
	// ahead of consumption (backpressure window). <= 0 means 2.
	Buffer int
	// Metrics, when non-nil, instruments everything built from this
	// config — the engine's stage timings and per-shard record counts,
	// the source's worker busy/idle and re-sequencing stalls, the buffer
	// pool's hit rate, and (via traffic.Engine.Instrument) KPI day
	// latency. Handles resolve at construction, so the hot path performs
	// only atomic updates and stays at 0 allocs/op; nil (the default)
	// keeps the pipeline bit-identical and entirely uninstrumented. See
	// PERFORMANCE.md, "Observability", for the metric catalog.
	Metrics *obs.Registry
	// Fault, when non-nil, arms deterministic fault injection at the
	// pipeline's named sites (see internal/fault): day production
	// (fault.ProduceDay), parallel shard tasks (fault.ShardTask) and the
	// serial merge stage (fault.MergeDay). nil (the default) keeps every
	// site at a single nil-check and the pipeline bit-identical — the
	// chaos suite and RELIABILITY.md document the failure semantics.
	Fault *fault.Injector
}

// WithDefaults returns the config with unset fields resolved.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Buffer <= 0 {
		c.Buffer = 2
	}
	return c
}

// TraceSharder consumes day traces partitioned by user. For every day
// the engine calls BeginDay once, then ShardDay concurrently (one call
// per shard, with disjoint index sets into the day's trace slice, always
// in input order within a shard), then EndDay once after every shard
// call returned. Shard s always receives the same users, so per-shard
// state evolves identically regardless of worker count.
type TraceSharder interface {
	BeginDay(day timegrid.SimDay, traces []mobsim.DayTrace)
	ShardDay(shard int, day timegrid.SimDay, traces []mobsim.DayTrace, idx []int)
	EndDay(day timegrid.SimDay)
}

// KPISharder is the TraceSharder counterpart for per-cell KPI records,
// partitioned by cell ID.
type KPISharder interface {
	BeginDay(day timegrid.SimDay, cells []traffic.CellDay)
	ShardDay(shard int, day timegrid.SimDay, cells []traffic.CellDay, idx []int)
	EndDay(day timegrid.SimDay)
}

// EventSharder is the TraceSharder counterpart for control-plane events,
// partitioned by user ID.
type EventSharder interface {
	BeginDay(day timegrid.SimDay, events []signaling.Event)
	ShardDay(shard int, day timegrid.SimDay, events []signaling.Event, idx []int)
	EndDay(day timegrid.SimDay)
}

// TraceConsumer is a serial per-day trace consumer — the ConsumeDay
// shape of the core analyzers; it runs in the merge stage, in day order.
type TraceConsumer interface {
	ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace)
}

// KPIConsumer is a serial per-day KPI consumer — the ConsumeDay shape
// of core.KPIAnalyzer; it runs in the merge stage, in day order.
type KPIConsumer interface {
	ConsumeDay(day timegrid.SimDay, cells []traffic.CellDay)
}

// Engine drives sources through sharded and serial consumers.
type Engine struct {
	cfg Config

	traceSharders []TraceSharder
	kpiSharders   []KPISharder
	eventSharders []EventSharder
	traceSerial   []TraceConsumer
	kpiSerial     []KPIConsumer

	// per-day partition scratch, reused across days.
	traceIdx [][]int
	cellIdx  [][]int
	eventIdx [][]int

	sem chan struct{}

	// m holds the engine's metric handles; nil when cfg.Metrics is unset
	// (the default), in which case runDay takes no timestamps at all.
	m *engineMetrics
	// fi is the armed fault injector; nil (the default) costs one
	// nil-check per site.
	fi *fault.Injector
}

// engineMetrics are the engine's handles, resolved once in NewEngine so
// runDay never touches the registry. Per-shard counters are indexed by
// shard — the partition is stable (ShardOfUser/ShardOfCell), so shard NN
// tallies the same users every day and the counts expose partition skew.
type engineMetrics struct {
	days       *obs.Counter   // stream.engine.days: days merged
	shardStage *obs.Histogram // stream.engine.shard_stage_ns: parallel stage latency per day
	mergeStage *obs.Histogram // stream.engine.merge_stage_ns: serial merge latency per day
	traces     []*obs.Counter // stream.shard.NN.traces
	visits     []*obs.Counter // stream.shard.NN.visits
}

func newEngineMetrics(r *obs.Registry, shards int) *engineMetrics {
	if r == nil {
		return nil
	}
	m := &engineMetrics{
		days:       r.Counter("stream.engine.days"),
		shardStage: r.Histogram("stream.engine.shard_stage_ns", 1),
		mergeStage: r.Histogram("stream.engine.merge_stage_ns", 1),
	}
	for i := 0; i < shards; i++ {
		m.traces = append(m.traces, r.Counter(fmt.Sprintf("stream.shard.%02d.traces", i)))
		m.visits = append(m.visits, r.Counter(fmt.Sprintf("stream.shard.%02d.visits", i)))
	}
	return m
}

func (m *engineMetrics) shardStageH() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.shardStage
}

func (m *engineMetrics) mergeStageH() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.mergeStage
}

// NewEngine builds an engine; consumers are attached with the Add
// methods before Run.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	e := &Engine{cfg: cfg, sem: make(chan struct{}, cfg.Workers)}
	e.traceIdx = makeParts(cfg.Shards)
	e.cellIdx = makeParts(cfg.Shards)
	e.eventIdx = makeParts(cfg.Shards)
	e.m = newEngineMetrics(cfg.Metrics, cfg.Shards)
	e.fi = cfg.Fault
	return e
}

func makeParts(n int) [][]int {
	p := make([][]int, n)
	for i := range p {
		p[i] = make([]int, 0, 64)
	}
	return p
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// AddTraceSharder attaches a sharded trace consumer.
func (e *Engine) AddTraceSharder(s TraceSharder) { e.traceSharders = append(e.traceSharders, s) }

// AddKPISharder attaches a sharded KPI consumer.
func (e *Engine) AddKPISharder(s KPISharder) { e.kpiSharders = append(e.kpiSharders, s) }

// AddEventSharder attaches a sharded event consumer.
func (e *Engine) AddEventSharder(s EventSharder) { e.eventSharders = append(e.eventSharders, s) }

// AddTraceConsumer attaches a serial merge-stage trace consumer.
func (e *Engine) AddTraceConsumer(c TraceConsumer) { e.traceSerial = append(e.traceSerial, c) }

// AddKPIConsumer attaches a serial merge-stage KPI consumer.
func (e *Engine) AddKPIConsumer(c KPIConsumer) { e.kpiSerial = append(e.kpiSerial, c) }

// ShardOfUser returns the shard a user's records land on under s shards.
// The hash is a stable bit mixer, so the partition depends only on the
// user ID and shard count — never on run order or worker count.
func ShardOfUser(u uint64, s int) int { return int(rng.Hash64(u) % uint64(s)) }

// ShardOfCell returns the shard a cell's records land on under s shards.
func ShardOfCell(c uint64, s int) int { return int(rng.Hash64(c^0xCE11CE11) % uint64(s)) }

// Run pulls day batches from the source until io.EOF, fanning each day
// out across the shard workers and merging before the next day starts.
// After a day's merge stage the batch is released back to its source
// (DayBatch.Release), so consumers must copy anything they keep — see
// the buffer-ownership rules in README.md.
//
// Failure semantics (see RELIABILITY.md): ctx cancellation surfaces as
// ctx.Err() within at most one day of work; a panic in any shard task
// or the merge stage is recovered into a *WorkerPanic and returned as
// a joined error. On any early exit — cancellation, source error, or a
// failed day — the source is stopped (Stopper) so its producers exit
// and in-flight pooled buffers return to their free lists; the day's
// batch is always released exactly once.
func (e *Engine) Run(ctx context.Context, src Source) error {
	for {
		if err := ctx.Err(); err != nil {
			stopSource(src)
			return err
		}
		b, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			stopSource(src)
			return err
		}
		dayErr := e.runDay(&b)
		b.Release()
		if dayErr != nil {
			stopSource(src)
			return dayErr
		}
	}
}

// runDay processes one day batch: partition, parallel shard stage,
// serial merge stage. A non-nil error means the day failed — shard
// state may be mid-day inconsistent and the run must stop.
func (e *Engine) runDay(b *DayBatch) error {
	s := e.cfg.Shards
	partition(e.traceIdx, len(b.Traces), func(i int) int {
		return ShardOfUser(uint64(b.Traces[i].User), s)
	})
	partition(e.cellIdx, len(b.Cells), func(i int) int {
		return ShardOfCell(uint64(b.Cells[i].Cell), s)
	})
	partition(e.eventIdx, len(b.Events), func(i int) int {
		return ShardOfUser(uint64(b.Events[i].User), s)
	})

	if m := e.m; m != nil {
		m.days.Inc()
		// Per-shard record tallies: O(traces) integer adds, only when
		// metrics are on. The partition is stable, so these expose skew
		// across the run, not per-day noise.
		for sh := 0; sh < s; sh++ {
			idx := e.traceIdx[sh]
			nv := 0
			for _, i := range idx {
				nv += len(b.Traces[i].Visits)
			}
			m.traces[sh].Add(int64(len(idx)))
			m.visits[sh].Add(int64(nv))
		}
	}

	for _, sh := range e.traceSharders {
		sh.BeginDay(b.Day, b.Traces)
	}
	for _, sh := range e.kpiSharders {
		sh.BeginDay(b.Day, b.Cells)
	}
	for _, sh := range e.eventSharders {
		sh.BeginDay(b.Day, b.Events)
	}

	// Shard-stage failures (recovered panics, injected faults) collect
	// here; the slice stays nil — no allocation — on the clean path.
	var failMu sync.Mutex
	var failed []error
	fail := func(err error) {
		failMu.Lock()
		failed = append(failed, err)
		failMu.Unlock()
	}

	ssp := obs.Start(e.m.shardStageH())
	var wg sync.WaitGroup
	run := func(shard int, task func()) {
		wg.Add(1)
		e.sem <- struct{}{}
		go func() {
			defer func() { <-e.sem; wg.Done() }()
			var err error
			func() {
				defer capturePanic(&err, "shard", shard, b.Day)
				if ferr := e.fi.Fire(fault.ShardTask, int64(b.Day)); ferr != nil {
					err = ferr
					return
				}
				task()
			}()
			if err != nil {
				fail(err)
			}
		}()
	}
	for _, sh := range e.traceSharders {
		for i := 0; i < s; i++ {
			if len(e.traceIdx[i]) > 0 {
				sh, i := sh, i
				run(i, func() { sh.ShardDay(i, b.Day, b.Traces, e.traceIdx[i]) })
			}
		}
	}
	for _, sh := range e.kpiSharders {
		for i := 0; i < s; i++ {
			if len(e.cellIdx[i]) > 0 {
				sh, i := sh, i
				run(i, func() { sh.ShardDay(i, b.Day, b.Cells, e.cellIdx[i]) })
			}
		}
	}
	for _, sh := range e.eventSharders {
		for i := 0; i < s; i++ {
			if len(e.eventIdx[i]) > 0 {
				sh, i := sh, i
				run(i, func() { sh.ShardDay(i, b.Day, b.Events, e.eventIdx[i]) })
			}
		}
	}
	wg.Wait()
	ssp.End()
	if failed != nil {
		// Fail before the merge: a shard that died mid-day leaves its
		// consumer state inconsistent, so folding it would corrupt the
		// aggregates rather than report them.
		return errors.Join(failed...)
	}

	// Merge stage: strictly serial, fixed order. A panic here (or an
	// injected merge fault) fails the day the same way.
	msp := obs.Start(e.m.mergeStageH())
	var mergeErr error
	func() {
		defer capturePanic(&mergeErr, "merge", -1, b.Day)
		if ferr := e.fi.Fire(fault.MergeDay, int64(b.Day)); ferr != nil {
			mergeErr = ferr
			return
		}
		for _, sh := range e.traceSharders {
			sh.EndDay(b.Day)
		}
		for _, sh := range e.kpiSharders {
			sh.EndDay(b.Day)
		}
		for _, sh := range e.eventSharders {
			sh.EndDay(b.Day)
		}
		for _, c := range e.traceSerial {
			c.ConsumeDay(b.Day, b.Traces)
		}
		if b.Cells != nil {
			for _, c := range e.kpiSerial {
				c.ConsumeDay(b.Day, b.Cells)
			}
		}
	}()
	msp.End()
	return mergeErr
}

// partition fills parts with the indices 0..n-1 grouped by shardOf,
// preserving input order within each shard.
func partition(parts [][]int, n int, shardOf func(int) int) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for i := 0; i < n; i++ {
		s := shardOf(i)
		parts[s] = append(parts[s], i)
	}
}
