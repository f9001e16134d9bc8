package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feeds"
	"repro/internal/feeds/colfmt"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/partial"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// procs is the parallelism of every workload: children run with
// GOMAXPROCS=procs and the parallel executors are sized to it, so a run
// never has more than procs busy threads.
const procs = 2

// replayParts is the number of user-range shards the replay workload
// partitions its feed into, one concurrent shard replay each.
const replayParts = 2

// workload is one seeded input set. op is the end-to-end operation,
// composed from the public entry points the CLIs use; ref is the serial
// composition of the same layers, which is both the correctness
// reference (its digest must equal op's) and, traced, the source of the
// per-layer metrics.
type workload struct {
	name  string
	users int
	// prepare writes inputs into the run's scratch directory once per
	// invocation, before anything is timed; nil when the op needs none.
	prepare func(e env) error
	// op sets up one op on e, which is timed as set-up, and returns its
	// run phase.
	op  func(e env) (opRun, error)
	ref func(e env, tr *tracer, c *counts) (string, error)
}

// opRun is the run phase of an op; p, when not nil, probes the op's
// stream engines.
type opRun func(ctx context.Context, p *streamProbe) (opOut, error)

// The sizes keep one op at 2-10 s on two cores, so a run of
// BENCHMARK.json's run_seconds holds several ops and ends within about
// 30 s. Why each workload is there: bench/README.md.
var workloads = []*workload{
	{name: "study-50k", users: 50_000, op: opStudy, ref: refStudy},
	{name: "sweep-8k", users: 8_000, op: opSweep, ref: refSweep},
	{name: "monitor-4k", users: 4_000, op: opMonitor, ref: refMonitor},
	// At 15k users each shard's partial file (≈25 MB) sits mid-way
	// between two buffer doublings of the JSON encoder and decoder; at
	// 20k it sits at 32 MiB, and alloc_mb jumps by 128 MB between seeds.
	{name: "replay-15k", users: 15_000, prepare: prepareReplay, op: opReplay, ref: refReplay},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is what an op or a reference needs to build its inputs.
type env struct {
	seed  uint64
	users int
	dir   string // the invocation's scratch directory
}

func (e env) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed, cfg.TargetUsers = e.seed, e.users
	return cfg
}

// opOut is what one end-to-end op reports besides its timings.
type opOut struct {
	digest               string
	subOps, subFailed    int
	checks, checksFailed int
	dayGapsMS            []float64
	tempBytes            int64
	forks, prefixDays    int
}

// counts are the work counts of a reference composition.
type counts struct {
	visits, cellDays, events           int64
	bytesWritten, bytesRead, partBytes int64
}

func (c *counts) traces(ts []mobsim.DayTrace) {
	for i := range ts {
		c.visits += int64(len(ts[i].Visits))
	}
}

// meter splits an op into its set-up and run phases and measures the
// run phase: wall time, CPU time from getrusage and bytes allocated.
type meter struct {
	start, runStart time.Time
	ru              syscall.Rusage
	alloc           uint64
	setup           time.Duration
}

func newMeter() *meter { return &meter{start: time.Now()} }

// startRun ends set-up and starts the run phase.
func (m *meter) startRun() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc = ms.TotalAlloc
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	m.runStart = time.Now()
	m.setup = m.runStart.Sub(m.start)
}

// stop ends the run phase and fills in the op's timings.
func (m *meter) stop(r *childResult) {
	wall := time.Since(m.runStart)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := func(u syscall.Rusage) time.Duration {
		return time.Duration(u.Utime.Nano() + u.Stime.Nano())
	}
	r.SetupS = m.setup.Seconds()
	r.WallS = wall.Seconds()
	r.CPUS = (cpu(ru) - cpu(m.ru)).Seconds()
	r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	r.AllocMB = float64(ms.TotalAlloc-m.alloc) / (1 << 20)
}

// streamProbe times a stream.Engine from outside, in the traced run's
// op: how long Run waited on its source and how long shard tasks were
// busy. A nil probe adds no wrappers.
type streamProbe struct {
	wait, busy, run atomic.Int64
	workers         int64
}

func (p *streamProbe) engineRun(ctx context.Context, eng *stream.Engine, src stream.Source) error {
	if p == nil {
		return eng.Run(ctx, src)
	}
	t := time.Now()
	err := eng.Run(ctx, probedSource{src, p})
	p.run.Add(int64(time.Since(t)))
	p.workers = int64(eng.Config().Workers)
	return err
}

func (p *streamProbe) traceSharder(s stream.TraceSharder) stream.TraceSharder {
	if p == nil {
		return s
	}
	return probedTraceSharder{s, p}
}

func (p *streamProbe) kpiSharder(s stream.KPISharder) stream.KPISharder {
	if p == nil {
		return s
	}
	return probedKPISharder{s, p}
}

type probedSource struct {
	stream.Source
	p *streamProbe
}

func (s probedSource) Next() (stream.DayBatch, error) {
	t := time.Now()
	b, err := s.Source.Next()
	s.p.wait.Add(int64(time.Since(t)))
	return b, err
}

// Stop forwards the engine's early shutdown to the wrapped source.
func (s probedSource) Stop() {
	if st, ok := s.Source.(stream.Stopper); ok {
		st.Stop()
	}
}

type probedTraceSharder struct {
	stream.TraceSharder
	p *streamProbe
}

func (s probedTraceSharder) ShardDay(shard int, day timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	t := time.Now()
	s.TraceSharder.ShardDay(shard, day, traces, idx)
	s.p.busy.Add(int64(time.Since(t)))
}

type probedKPISharder struct {
	stream.KPISharder
	p *streamProbe
}

func (s probedKPISharder) ShardDay(shard int, day timegrid.SimDay, cells []traffic.CellDay, idx []int) {
	t := time.Now()
	s.KPISharder.ShardDay(shard, day, cells, idx)
	s.p.busy.Add(int64(time.Since(t)))
}

// --- shared serial building blocks ---------------------------------------

// buildWorld is experiments.NewWorld with a span around each layer.
func buildWorld(tr *tracer, cfg experiments.Config) *experiments.World {
	var model *census.Model
	tr.do("census.build", func() { model = census.BuildUK(cfg.Seed) })
	rcfg := radio.DefaultConfig()
	rcfg.PopPerTower = cfg.PopPerTower
	var topo *radio.Topology
	tr.do("radio.build", func() { topo = radio.Build(model, rcfg, cfg.Seed) })
	var pop *popsim.Population
	tr.do("popsim.synthesize", func() {
		pop = popsim.Synthesize(model, topo, popsim.Config{
			Seed: cfg.Seed, TargetUsers: cfg.TargetUsers, M2MFraction: 0.08, RoamerFraction: 0.03,
		})
	})
	return &experiments.World{
		Seed: cfg.Seed, TargetUsers: cfg.TargetUsers, PopPerTower: cfg.PopPerTower,
		Model: model, Topology: topo, Pop: pop,
	}
}

// instantiate is World.Instantiate with a span around each layer; a nil
// scenario is the calibrated default.
func instantiate(tr *tracer, w *experiments.World, cfg experiments.Config, scen *pandemic.Scenario) *experiments.Dataset {
	cfg.Scenario = scen
	if scen == nil {
		scen = pandemic.Default()
	}
	d := &experiments.Dataset{Config: cfg, World: w, Model: w.Model, Topology: w.Topology, Pop: w.Pop, Scenario: scen}
	tr.do("mobsim.new", func() { d.Sim = mobsim.New(w.Pop, scen, w.Seed) })
	tr.do("traffic.new_engine", func() { d.Engine = traffic.NewEngine(w.Pop, scen, traffic.DefaultParams(), w.Seed) })
	return d
}

// detectHomes is the February home-detection pass.
func detectHomes(tr *tracer, sim *mobsim.Simulator, topo *radio.Topology, c *counts) map[popsim.UserID]core.Home {
	hd := core.NewHomeDetector(topo)
	buf := mobsim.NewDayBuffer()
	for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
		var traces []mobsim.DayTrace
		tr.do("mobsim.day", func() { traces = sim.DayInto(buf, day) })
		c.traces(traces)
		tr.do("core.homes", func() { hd.ConsumeDay(day, traces) })
	}
	var homes map[popsim.UserID]core.Home
	tr.do("core.homes", func() { homes = hd.Detect() })
	return homes
}

// studyPass is the study-window pass of experiments.RunStandardOn: the
// mobility, Inner-London matrix and KPI folds over days 23..99.
func studyPass(tr *tracer, d *experiments.Dataset, homes map[popsim.UserID]core.Home, c *counts) *experiments.Results {
	r := &experiments.Results{Dataset: d, Homes: homes}
	tr.do("core.mobility", func() { r.Mobility = core.NewMobilityAnalyzer(d.Pop, d.Config.TopN) })
	tr.do("core.matrix", func() {
		inner := d.Model.InnerLondon()
		var cohort []popsim.UserID
		for uid, h := range homes {
			if h.County == inner.ID {
				cohort = append(cohort, uid)
			}
		}
		r.Matrix = core.NewMobilityMatrix(d.Pop, inner.ID, cohort, d.Config.TopN)
	})
	tr.do("core.kpi", func() { r.KPI = core.NewKPIAnalyzer(d.Topology) })
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.SimDays; day++ {
		var traces []mobsim.DayTrace
		tr.do("mobsim.day", func() { traces = d.Sim.DayInto(buf, day) })
		c.traces(traces)
		tr.do("core.mobility", func() { r.Mobility.ConsumeDay(day, traces) })
		tr.do("core.matrix", func() { r.Matrix.ConsumeDay(day, traces) })
		tr.do("traffic.day", func() { cells = d.Engine.DayAppend(cells[:0], day, traces) })
		c.cellDays += int64(len(cells))
		tr.do("core.kpi", func() { r.KPI.ConsumeDay(day, cells) })
	}
	return r
}

// --- study: one full study run -------------------------------------------

func opStudy(e env) (opRun, error) {
	cfg := e.config()
	d := experiments.NewWorld(cfg).Instantiate(cfg)
	return func(ctx context.Context, _ *streamProbe) (opOut, error) {
		out := opOut{subOps: 1}
		r, err := experiments.RunStreamingOn(ctx, d, stream.Config{Workers: procs})
		if err != nil {
			out.subFailed = 1
			return out, err
		}
		out.digest, out.checks, out.checksFailed = studyDigest(experiments.AllFigures(r), experiments.Headlines(r))
		return out, nil
	}, nil
}

func refStudy(e env, tr *tracer, c *counts) (string, error) {
	cfg := e.config()
	w := buildWorld(tr, cfg)
	d := instantiate(tr, w, cfg, nil)
	r := studyPass(tr, d, detectHomes(tr, d.Sim, d.Topology, c), c)
	var figs []*experiments.Figure
	var hl []experiments.Headline
	tr.do("experiments.figures", func() { figs, hl = experiments.AllFigures(r), experiments.Headlines(r) })
	sum, _, _ := studyDigest(figs, hl)
	return sum, nil
}

func studyDigest(figs []*experiments.Figure, hl []experiments.Headline) (string, int, int) {
	d := newDigest()
	checks, failed := d.figures(figs)
	d.headlines(hl)
	return d.hex(), checks, failed
}

// --- sweep: every registry scenario over one world -----------------------

func registryScenarios() ([]experiments.SweepScenario, error) {
	var out []experiments.SweepScenario
	for _, sp := range scenario.List() {
		s, err := sp.Scenario()
		if err != nil {
			return nil, fmt.Errorf("compiling scenario %s: %w", sp.Name, err)
		}
		out = append(out, experiments.SweepScenario{Name: sp.Name, Scenario: s})
	}
	return out, nil
}

func opSweep(e env) (opRun, error) {
	cfg := e.config()
	w := experiments.NewWorld(cfg)
	scens, err := registryScenarios()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, _ *streamProbe) (opOut, error) {
		out := opOut{subOps: len(scens)}
		runs, err := experiments.RunSweepParallelOpts(ctx, w, cfg, stream.Config{Workers: 1}, scens,
			experiments.SweepOptions{Parallel: procs, SharePrefix: true})
		for _, r := range runs {
			if r.Err != nil {
				out.subFailed++
			}
			if r.ForkedFrom != "" {
				out.forks++
				out.prefixDays += r.PrefixDays
			}
		}
		if err != nil {
			return out, err
		}
		out.digest, out.checks, out.checksFailed = sweepDigest(runs, experiments.AllFigures(runs[0].Results))
		return out, nil
	}, nil
}

func refSweep(e env, tr *tracer, c *counts) (string, error) {
	cfg := e.config()
	scens, err := registryScenarios()
	if err != nil {
		return "", err
	}
	w := buildWorld(tr, cfg)
	// The February pass is scenario-invariant: World.Homes runs it once
	// under the default scenario, and so does this composition.
	var sim *mobsim.Simulator
	tr.do("mobsim.new", func() { sim = mobsim.New(w.Pop, pandemic.Default(), w.Seed) })
	homes := detectHomes(tr, sim, w.Topology, c)
	runs := make([]experiments.SweepRun, len(scens))
	for i, sc := range scens {
		tr.setRun(i + 1)
		r := studyPass(tr, instantiate(tr, w, cfg, sc.Scenario), homes, c)
		tr.do("experiments.figures", func() {
			runs[i] = experiments.SweepRun{Name: sc.Name, Results: r, Headlines: experiments.Headlines(r)}
		})
	}
	tr.setRun(0)
	var figs []*experiments.Figure
	tr.do("experiments.figures", func() { figs = experiments.AllFigures(runs[0].Results) })
	sum, _, _ := sweepDigest(runs, figs)
	return sum, nil
}

// sweepDigest covers the sweep table and the default-covid run's
// figures (the registry lists default-covid first).
func sweepDigest(runs []experiments.SweepRun, figs []*experiments.Figure) (string, int, int) {
	d := newDigest()
	d.table(experiments.SweepTable(runs))
	checks, failed := d.figures(figs)
	return d.hex(), checks, failed
}

// --- monitor: cmd/mnostream's inline composition -------------------------

// printer is the monitor's serial merge-stage consumer: it records one
// summary row per day, as cmd/mnostream prints them, and when each row
// was ready.
type printer struct {
	mob   *stream.RollingMobility
	kpi   *stream.KPIMedians
	sig   *stream.Signaling
	rows  []monitorRow
	stamp []time.Time

	prevEvents, prevFailures int64
}

// ConsumeDay implements stream.TraceConsumer.
func (p *printer) ConsumeDay(day timegrid.SimDay, _ []mobsim.DayTrace) {
	row := monitorRow{mob: p.mob.Last()}
	if k := p.kpi.Last(); k.Day == day {
		row.kpi = k
	}
	events, failures := p.sig.Totals()
	row.events, row.failures = events-p.prevEvents, failures-p.prevFailures
	p.prevEvents, p.prevFailures = events, failures
	p.rows = append(p.rows, row)
	p.stamp = append(p.stamp, time.Now())
}

func newMonitor(d *experiments.Dataset, shards int) (*stream.RollingMobility, *stream.KPIMedians, *stream.Signaling) {
	return stream.NewRollingMobility(d.Topology, d.Config.TopN, shards),
		stream.NewKPIMedians(shards),
		stream.NewSignaling(signaling.NewGenerator(d.Pop, d.Config.Seed), d.Topology, shards, true)
}

func opMonitor(e env) (opRun, error) {
	cfg := e.config()
	d := experiments.NewWorld(cfg).Instantiate(cfg)
	return func(ctx context.Context, p *streamProbe) (opOut, error) {
		out := opOut{subOps: timegrid.SimDays}
		scfg := stream.Config{Workers: procs}.WithDefaults()
		mob, kpi, sig := newMonitor(d, scfg.Shards)
		eng := stream.NewEngine(scfg)
		eng.AddTraceSharder(p.traceSharder(mob))
		eng.AddKPISharder(p.kpiSharder(kpi))
		eng.AddTraceSharder(p.traceSharder(sig))
		pr := &printer{mob: mob, kpi: kpi, sig: sig}
		eng.AddTraceConsumer(pr)
		src := stream.NewSimSource(ctx, d.Sim, d.Engine, 0, timegrid.SimDays, scfg)
		if err := p.engineRun(ctx, eng, src); err != nil {
			out.subFailed = out.subOps - len(pr.rows)
			return out, err
		}
		for i := 1; i < len(pr.stamp); i++ {
			out.dayGapsMS = append(out.dayGapsMS, float64(pr.stamp[i].Sub(pr.stamp[i-1]))/1e6)
		}
		dg := newDigest()
		dg.monitorRows(pr.rows)
		out.digest = dg.hex()
		return out, nil
	}, nil
}

// refMonitor drives the same stages day by day on one goroutine, with the
// engine's partition: users and cells to the same shards, in input order.
func refMonitor(e env, tr *tracer, c *counts) (string, error) {
	cfg := e.config()
	d := instantiate(tr, buildWorld(tr, cfg), cfg, nil)
	shards := stream.Config{}.WithDefaults().Shards
	mob, kpi, sig := newMonitor(d, shards)
	pr := &printer{mob: mob, kpi: kpi, sig: sig}
	userIdx, cellIdx := make([][]int, shards), make([][]int, shards)
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(0); day < timegrid.SimDays; day++ {
		var traces []mobsim.DayTrace
		tr.do("mobsim.day", func() { traces = d.Sim.DayInto(buf, day) })
		c.traces(traces)
		tr.do("traffic.day", func() { cells = d.Engine.DayAppend(cells[:0], day, traces) })
		c.cellDays += int64(len(cells))
		partition(userIdx, len(traces), func(i int) int { return stream.ShardOfUser(uint64(traces[i].User), shards) })
		partition(cellIdx, len(cells), func(i int) int { return stream.ShardOfCell(uint64(cells[i].Cell), shards) })
		for _, st := range []struct {
			name string
			s    stream.TraceSharder
		}{{"stream.mobility", mob}, {"signaling.day", sig}} {
			tr.do(st.name, func() {
				st.s.BeginDay(day, traces)
				for sh, idx := range userIdx {
					if len(idx) > 0 {
						st.s.ShardDay(sh, day, traces, idx)
					}
				}
				st.s.EndDay(day)
			})
		}
		tr.do("stream.kpi", func() {
			kpi.BeginDay(day, cells)
			for sh, idx := range cellIdx {
				if len(idx) > 0 {
					kpi.ShardDay(sh, day, cells, idx)
				}
			}
			kpi.EndDay(day)
		})
		pr.ConsumeDay(day, traces)
	}
	c.events, _ = sig.Totals()
	dg := newDigest()
	dg.monitorRows(pr.rows)
	return dg.hex(), nil
}

// partition fills parts with the indices 0..n-1 grouped by shardOf,
// keeping input order within each shard, as stream.Engine does (which
// also skips the ShardDay call of an empty shard).
func partition(parts [][]int, n int, shardOf func(int) int) {
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	for i := 0; i < n; i++ {
		s := shardOf(i)
		parts[s] = append(parts[s], i)
	}
}

// --- replay: partition, shard replays, partial files, merge --------------

func feedDir(e env) string { return filepath.Join(e.dir, "feed") }

func prepareReplay(e env) error {
	cfg := e.config()
	var c counts
	return writeFeed(nil, experiments.NewWorld(cfg), cfg, feedDir(e), &c)
}

// writeFeed writes the study window as a columnar trace and KPI feed
// directory with its meta sidecar, the format `mnosim -raw -format col`
// writes.
func writeFeed(tr *tracer, w *experiments.World, cfg experiments.Config, dir string, c *counts) (err error) {
	d := instantiate(tr, w, cfg, nil)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, feeds.TraceColFeedName))
	if err != nil {
		return err
	}
	defer closeInto(tf, &err)
	kf, err := os.Create(filepath.Join(dir, feeds.KPIColFeedName))
	if err != nil {
		return err
	}
	defer closeInto(kf, &err)
	tw, kw := colfmt.NewTraceWriter(tf), colfmt.NewKPIWriter(kf)
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.SimDays && err == nil; day++ {
		var traces []mobsim.DayTrace
		tr.do("mobsim.day", func() { traces = d.Sim.DayInto(buf, day) })
		c.traces(traces)
		tr.do("feeds.write", func() { err = tw.WriteDay(day, traces) })
		if err != nil {
			break
		}
		tr.do("traffic.day", func() { cells = d.Engine.DayAppend(cells[:0], day, traces) })
		c.cellDays += int64(len(cells))
		tr.do("feeds.write", func() { err = kw.WriteDay(day, cells) })
	}
	tr.do("feeds.write", func() {
		err = errors.Join(err, tw.Flush(), kw.Flush(), feeds.WriteMeta(dir, feeds.Meta{
			Users: cfg.TargetUsers, Seed: cfg.Seed, Format: feeds.FormatCol, FormatVersion: colfmt.Version,
		}))
	})
	return err
}

// closeInto closes f and keeps the first error.
func closeInto(f *os.File, err *error) {
	if cerr := f.Close(); *err == nil {
		*err = cerr
	}
}

func opReplay(e env) (opRun, error) {
	cfg := e.config()
	w := experiments.NewWorld(cfg)
	return func(ctx context.Context, p *streamProbe) (opOut, error) {
		out := opOut{subOps: replayParts + 1}
		work, err := os.MkdirTemp(e.dir, "op-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(work)
		metas, err := feeds.PartitionDir(feedDir(e), filepath.Join(work, "shards"), replayParts, feeds.Options{})
		if err != nil {
			out.subFailed = out.subOps
			return out, err
		}
		paths := make([]string, len(metas))
		errs := make([]error, len(metas))
		var wg sync.WaitGroup
		for s := range metas {
			paths[s] = filepath.Join(work, fmt.Sprintf("part-%02d.json", s))
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[s] = replayShard(ctx, w.Topology, cfg.TopN, filepath.Join(work, "shards", feeds.ShardDirName(s)), metas[s], paths[s], p)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				out.subFailed++
			}
		}
		if err := errors.Join(errs...); err != nil {
			out.subFailed++ // the merge cannot run either
			return out, err
		}
		out.tempBytes = dirSize(e.dir)
		parts := make([]*partial.Partial, len(paths))
		for s, path := range paths {
			if parts[s], err = partial.ReadFile(path); err != nil {
				out.subFailed++
				return out, err
			}
		}
		res, err := partial.Merge(parts)
		if err != nil {
			out.subFailed++
			return out, err
		}
		dg := newDigest()
		dg.replayResult(res)
		out.digest = dg.hex()
		return out, nil
	}, nil
}

// replayShard is `mnostream -feeds DIR -partial FILE` on one shard.
func replayShard(ctx context.Context, topo *radio.Topology, topN int, dir string, meta feeds.Meta, out string, p *streamProbe) error {
	src, err := feeds.OpenDir(dir)
	if err != nil {
		return err
	}
	defer src.Close()
	scfg := stream.Config{Workers: 1}.WithDefaults()
	eng := stream.NewEngine(scfg)
	rec := partial.NewRecorder(topo, topN, meta)
	eng.AddTraceConsumer(rec.Traces())
	eng.AddKPIConsumer(rec.KPI())
	eng.AddEventSharder(rec.Events())
	if err := p.engineRun(ctx, eng, stream.Prefetch(src, scfg.Buffer)); err != nil {
		return err
	}
	return partial.WriteFile(out, rec.Partial())
}

// refReplay generates its own feed, replays it unpartitioned (the
// reference result), then runs the op's layers serially: partition, one
// shard replay after the other, partial files out and back in, merge.
// Both results must agree.
func refReplay(e env, tr *tracer, c *counts) (string, error) {
	cfg := e.config()
	work, err := os.MkdirTemp(e.dir, "ref-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(work)
	w := buildWorld(tr, cfg)
	feed := filepath.Join(work, "feed")
	if err := writeFeed(tr, w, cfg, feed, c); err != nil {
		return "", err
	}
	c.bytesWritten += dirSize(feed)

	meta, _, err := feeds.ReadMeta(feed)
	if err != nil {
		return "", err
	}
	whole, err := replaySerial(tr, feed, w.Topology, cfg.TopN, meta, c)
	if err != nil {
		return "", err
	}
	var ref *partial.Result
	tr.do("partial.merge", func() { ref, err = partial.Merge([]*partial.Partial{whole}) })
	if err != nil {
		return "", err
	}

	shards := filepath.Join(work, "shards")
	var metas []feeds.Meta
	tr.do("feeds.partition", func() { metas, err = feeds.PartitionDir(feed, shards, replayParts, feeds.Options{}) })
	if err != nil {
		return "", err
	}
	c.bytesWritten += dirSize(shards)
	parts := make([]*partial.Partial, len(metas))
	for s := range metas {
		tr.setRun(s + 1)
		p, err := replaySerial(tr, filepath.Join(shards, feeds.ShardDirName(s)), w.Topology, cfg.TopN, metas[s], c)
		if err != nil {
			return "", err
		}
		path := filepath.Join(work, fmt.Sprintf("part-%02d.json", s))
		tr.do("partial.write", func() { err = partial.WriteFile(path, p) })
		if err != nil {
			return "", err
		}
		c.partBytes += fileSize(path)
		tr.do("partial.read", func() { parts[s], err = partial.ReadFile(path) })
		if err != nil {
			return "", err
		}
	}
	tr.setRun(0)
	var merged *partial.Result
	tr.do("partial.merge", func() { merged, err = partial.Merge(parts) })
	if err != nil {
		return "", err
	}

	want, got := newDigest(), newDigest()
	want.replayResult(ref)
	got.replayResult(merged)
	if want.hex() != got.hex() {
		return "", fmt.Errorf("serial partitioned replay digest %s differs from the unpartitioned replay %s", got.hex(), want.hex())
	}
	return want.hex(), nil
}

// replaySerial replays one feed directory into a partial.Recorder on one
// goroutine, calling the recorder's views in stream.Engine's order.
func replaySerial(tr *tracer, dir string, topo *radio.Topology, topN int, meta feeds.Meta, c *counts) (*partial.Partial, error) {
	c.bytesRead += dirSize(dir)
	src, err := feeds.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	rec := partial.NewRecorder(topo, topN, meta)
	traces, kpi, events := rec.Traces(), rec.KPI(), rec.Events()
	var all []int
	for {
		var b stream.DayBatch
		tr.do("feeds.decode", func() { b, err = src.Next() })
		if err == io.EOF {
			return rec.Partial(), nil
		}
		if err != nil {
			return nil, err
		}
		tr.do("partial.record", func() {
			events.BeginDay(b.Day, b.Events)
			if len(b.Events) > 0 {
				all = all[:0]
				for i := range b.Events {
					all = append(all, i)
				}
				events.ShardDay(0, b.Day, b.Events, all)
			}
			events.EndDay(b.Day)
			traces.ConsumeDay(b.Day, b.Traces)
			if b.Cells != nil {
				kpi.ConsumeDay(b.Day, b.Cells)
			}
		})
		b.Release()
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
