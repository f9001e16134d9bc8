// Benchmarks regenerating every table and figure of the paper (one
// benchmark per experiment, per DESIGN.md §3), the ablation sweeps of
// DESIGN.md §5, and micro-benchmarks of the hot paths (per-day
// simulation, per-day KPI generation, the mobility metrics).
//
// The shared fixture simulates once; figure benchmarks then measure the
// analysis/regeneration step, which is what varies across experiments.
package repro_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/epi"
	"repro/internal/experiments"
	"repro/internal/feeds"
	"repro/internal/feeds/colfmt"
	"repro/internal/geo"
	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

var (
	benchOnce sync.Once
	benchRes  *experiments.Results
	benchDay  []mobsim.DayTrace // one representative simulated day
)

func benchResults(b *testing.B) *experiments.Results {
	b.Helper()
	benchOnce.Do(func() {
		// The default scale: the figure checks are calibrated against it
		// (smaller populations make the Fig. 2 census fit too noisy).
		cfg := experiments.DefaultConfig()
		benchRes = experiments.RunStandard(cfg)
		benchDay = benchRes.Dataset.Sim.DayInto(mobsim.NewDayBuffer(), timegrid.SimDay(timegrid.StudyDayOffset+30))
	})
	return benchRes
}

// --- one benchmark per paper table/figure --------------------------------

func BenchmarkTable1Clusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := experiments.Table1(); len(f.Tables) == 0 {
			b.Fatal("empty table")
		}
	}
}

// allPass reports whether every check of a figure passed.
func allPass(f *experiments.Figure) bool {
	for _, c := range f.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func BenchmarkFig2HomeDetection(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := experiments.Fig2(r); !allPass(f) {
			b.Fatal("fig2 checks failed")
		}
	}
}

func BenchmarkFig3Gyration(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Mobility.NationalSeries(core.MetricGyration)
		if s.Len() != timegrid.StudyDays {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFig3Entropy(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Mobility.NationalSeries(core.MetricEntropy)
		if s.Len() != timegrid.StudyDays {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFig4CasesCorrelation(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := experiments.Fig4(r); !allPass(f) {
			b.Fatal("fig4 checks failed")
		}
	}
}

func BenchmarkFig5RegionalMobility(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(r)
	}
}

func BenchmarkFig6ClusterMobility(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(r)
	}
}

func BenchmarkFig7MobilityMatrix(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(r)
	}
}

func BenchmarkFig8NetworkKPIs(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig8(r)
	}
}

func BenchmarkFig9VoiceKPIs(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig9(r)
	}
}

func BenchmarkFig10ClusterKPIs(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig10(r)
	}
}

func BenchmarkFig11LondonDistricts(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(r)
	}
}

func BenchmarkFig12LondonClusters(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig12(r)
	}
}

// --- §2.3/§2.4 pipeline benchmarks ----------------------------------------

func BenchmarkSignalingDay(b *testing.B) {
	r := benchResults(b)
	gen := signaling.NewGenerator(r.Dataset.Pop, 1)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 30)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		gen.Day(day, benchDay, func(signaling.Event) { n++ })
	}
	if n == 0 {
		b.Fatal("no events")
	}
}

// --- ablation benchmarks (DESIGN.md §5) ------------------------------------

// BenchmarkAblationHomeNights sweeps the minimum-nights threshold of the
// home detection rule.
func BenchmarkAblationHomeNights(b *testing.B) {
	r := benchResults(b)
	days := make([][]mobsim.DayTrace, 14)
	for d := range days {
		days[d] = r.Dataset.Sim.DayInto(mobsim.NewDayBuffer(), timegrid.SimDay(d))
	}
	for _, nights := range []int{7, 14, 21} {
		nights := nights
		b.Run(benchName("minNights", nights), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hd := core.NewHomeDetector(r.Dataset.Topology)
				hd.MinNights = nights
				for d := range days {
					hd.ConsumeDay(timegrid.SimDay(d), days[d])
				}
				_ = hd.Detect()
			}
		})
	}
}

// BenchmarkAblationTopN sweeps the per-user tower filter.
func BenchmarkAblationTopN(b *testing.B) {
	r := benchResults(b)
	topo := r.Dataset.Topology
	for _, n := range []int{5, 10, 20, 0} {
		n := n
		b.Run(benchName("topN", n), func(b *testing.B) {
			var mg core.VisitMerger
			for i := 0; i < b.N; i++ {
				for j := range benchDay {
					mg.DayMetrics(&benchDay[j], topo, n)
				}
			}
		})
	}
}

// BenchmarkAblationEntropyGranularity compares whole-day metrics with the
// per-4-hour-bin variant of §2.3, both through a reused VisitMerger.
func BenchmarkAblationEntropyGranularity(b *testing.B) {
	r := benchResults(b)
	topo := r.Dataset.Topology
	b.Run("day", func(b *testing.B) {
		var mg core.VisitMerger
		for i := 0; i < b.N; i++ {
			for j := range benchDay {
				mg.DayMetrics(&benchDay[j], topo, core.DefaultTopN)
			}
		}
	})
	b.Run("bins", func(b *testing.B) {
		var mg core.VisitMerger
		for i := 0; i < b.N; i++ {
			for j := range benchDay {
				mg.AllBinMetrics(&benchDay[j], topo, core.DefaultTopN)
			}
		}
	})
}

// BenchmarkAblationInterconnect sweeps the interconnect headroom that
// controls the voice-loss incident.
func BenchmarkAblationInterconnect(b *testing.B) {
	r := benchResults(b)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 23) // week-12 surge
	traces := r.Dataset.Sim.DayInto(mobsim.NewDayBuffer(), day)
	for _, headroom := range []float64{0.9, 1.0, 1.5, 2.5} {
		headroom := headroom
		b.Run(benchName("headroomPct", int(headroom*100)), func(b *testing.B) {
			params := traffic.DefaultParams()
			params.InterconnectHeadroom = headroom
			eng := traffic.NewEngine(r.Dataset.Pop, r.Dataset.Scenario, params, 1)
			var cells []traffic.CellDay
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cells = eng.DayAppend(cells[:0], day, traces); len(cells) == 0 {
					b.Fatal("no cells")
				}
			}
		})
	}
}

// BenchmarkAblationDailyAggregate compares the paper's hourly-median
// daily reduction against a mean-based variant at the analysis layer.
func BenchmarkAblationDailyAggregate(b *testing.B) {
	r := benchResults(b)
	eng := r.Dataset.Engine
	day := timegrid.SimDay(timegrid.StudyDayOffset + 30)
	b.Run("hourly-median", func(b *testing.B) {
		var cells []traffic.CellDay
		for i := 0; i < b.N; i++ {
			cells = eng.DayAppend(cells[:0], day, benchDay)
		}
	})
	// The mean variant is approximated by post-processing the medians;
	// its cost bound is the same engine pass.
	b.Run("hourly-median+postmean", func(b *testing.B) {
		var cells []traffic.CellDay
		for i := 0; i < b.N; i++ {
			cells = eng.DayAppend(cells[:0], day, benchDay)
			var sum float64
			for j := range cells {
				sum += cells[j].Values[traffic.DLVolume]
			}
			_ = sum / float64(len(cells))
		}
	})
}

// --- micro-benchmarks of the hot paths -------------------------------------

// BenchmarkSimDayInto simulates one study day per iteration into one
// warm DayBuffer. allocs/op should read 0.
func BenchmarkSimDayInto(b *testing.B) {
	r := benchResults(b)
	buf := mobsim.NewDayBuffer()
	r.Dataset.Sim.DayInto(buf, timegrid.SimDay(timegrid.StudyDayOffset))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Dataset.Sim.DayInto(buf, timegrid.SimDay(timegrid.StudyDayOffset+i%timegrid.StudyDays))
	}
}

// BenchmarkEngineDayAppend runs the KPI engine over one 8k-user day
// into a reused destination, the steady-state shape of every pipeline.
// allocs/op should read 0.
func BenchmarkEngineDayAppend(b *testing.B) {
	r := benchResults(b)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 30)
	var cells []traffic.CellDay
	cells = r.Dataset.Engine.DayAppend(cells, day, benchDay)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = r.Dataset.Engine.DayAppend(cells[:0], day, benchDay)
	}
}

// BenchmarkEngineDayAppendInstrumented is BenchmarkEngineDayAppend with
// a live metrics registry attached: the instrumented path adds two clock
// reads, one histogram observe and one counter add per day. Compare
// against BenchmarkEngineDayAppend — the overhead budget is <= 2%
// (enforced qualitatively here, and allocs/op must still read 0).
func BenchmarkEngineDayAppendInstrumented(b *testing.B) {
	r := benchResults(b)
	eng := r.Dataset.Engine.Clone().Instrument(obs.New())
	day := timegrid.SimDay(timegrid.StudyDayOffset + 30)
	var cells []traffic.CellDay
	cells = eng.DayAppend(cells, day, benchDay)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells = eng.DayAppend(cells[:0], day, benchDay)
	}
}

// BenchmarkDayMetricsMerger runs the §2.3 per-user-day pipeline through
// a reused VisitMerger, the steady-state shape of every analyzer.
// allocs/op should read 0.
func BenchmarkDayMetricsMerger(b *testing.B) {
	r := benchResults(b)
	topo := r.Dataset.Topology
	var mg core.VisitMerger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.DayMetrics(&benchDay[i%len(benchDay)], topo, core.DefaultTopN)
	}
}

// BenchmarkMergeVisits isolates the visit dedupe+sort inside the §2.3
// pipeline, on the reusable merger.
func BenchmarkMergeVisits(b *testing.B) {
	r := benchResults(b)
	topo := r.Dataset.Topology
	var mg core.VisitMerger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Merge(&benchDay[i%len(benchDay)], topo)
	}
}

// BenchmarkKPIConsumeDay folds one warm 8k-user engine day into a
// KPIAnalyzer: every national, county, cluster and district quantile,
// selected in place over the pre-sized buckets. allocs/op should read 0.
func BenchmarkKPIConsumeDay(b *testing.B) {
	r := benchResults(b)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 30)
	cells := r.Dataset.Engine.DayAppend(nil, day, benchDay)
	k := core.NewKPIAnalyzer(r.Dataset.Topology)
	k.ConsumeDay(day, cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ConsumeDay(day, cells)
	}
}

// BenchmarkSimulatorNew measures binding a simulator to the 8k-user
// population: the columnar mirror plus one reselection query per
// distinct home tower.
func BenchmarkSimulatorNew(b *testing.B) {
	r := benchResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simSink = mobsim.New(r.Dataset.Pop, r.Dataset.Scenario, uint64(i))
	}
}

// simSink keeps BenchmarkSimulatorNew's result live.
var simSink *mobsim.Simulator

// BenchmarkPopulationSynthesis measures building the subscriber base
// over one world at the default experiment rung and at 50k users (the
// study-50k benchmark's scale). The seed is fixed, so every iteration
// builds the same population.
func BenchmarkPopulationSynthesis(b *testing.B) {
	m := census.BuildUK(1)
	topo := radio.Build(m, radio.DefaultConfig(), 1)
	for _, users := range []int{popsim.ScaleSmall, 50_000} {
		b.Run(benchName("users", users), func(b *testing.B) {
			cfg := popsim.Config{Seed: 1, TargetUsers: users, M2MFraction: 0.08, RoamerFraction: 0.03}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				popSink = popsim.Synthesize(m, topo, cfg)
			}
		})
	}
}

// popSink keeps BenchmarkPopulationSynthesis's result live.
var popSink *popsim.Population

func BenchmarkBuildUK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		census.BuildUK(uint64(i))
	}
}

func BenchmarkTopologyBuild(b *testing.B) {
	m := census.BuildUK(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Build(m, radio.DefaultConfig(), uint64(i))
	}
}

// BenchmarkPickTower measures one active-site draw, cycling through
// every district and every simulated day of the default topology (whose
// new sites come on air mid-window).
func BenchmarkPickTower(b *testing.B) {
	m := census.BuildUK(1)
	topo := radio.Build(m, radio.DefaultConfig(), 1)
	src := rng.New(1)
	var sink radio.TowerID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := census.DistrictID(i % len(m.Districts))
		day := timegrid.SimDay(i / len(m.Districts) % timegrid.SimDays)
		sink += topo.PickTower(d, day, src)
	}
	towerSink = sink
}

// towerSink keeps BenchmarkPickTower's draws live.
var towerSink radio.TowerID

// benchName formats a sub-benchmark label.
func benchName(key string, v int) string {
	return key + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// --- streaming engine benchmarks ---------------------------------------------

// BenchmarkRunStandardSerial is the serial end-to-end baseline the
// streaming benchmarks compare against: the full two-pass pipeline at
// the default popsim.ScaleSmall scale.
func BenchmarkRunStandardSerial(b *testing.B) {
	cfg := experiments.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := experiments.RunStandard(cfg); r.KPI == nil {
			b.Fatal("no KPI analyzer")
		}
	}
}

// benchmarkStream runs the sharded streaming pipeline end to end. The
// results are bit-identical to RunStandard; what varies is wall clock.
// Speedup over BenchmarkRunStandardSerial tracks the perf trajectory of
// the engine across PRs (on multi-core hardware; a single-core runner
// shows parity plus a small scheduling overhead).
func benchmarkStream(b *testing.B, workers int) {
	cfg := experiments.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r, err := experiments.RunStreamingOn(context.Background(), experiments.NewDataset(cfg), stream.Config{Workers: workers}); err != nil || r.KPI == nil {
			b.Fatal("no KPI analyzer")
		}
	}
}

func BenchmarkStreamWorkers1(b *testing.B) { benchmarkStream(b, 1) }
func BenchmarkStreamWorkers4(b *testing.B) { benchmarkStream(b, 4) }
func BenchmarkStreamWorkers8(b *testing.B) { benchmarkStream(b, 8) }

// BenchmarkStreamSimSource isolates the parallel day-production stage
// (simulation + KPI engine on per-worker clones, re-sequenced).
func BenchmarkStreamSimSource(b *testing.B) {
	r := benchResults(b)
	d := r.Dataset
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := stream.NewSimSource(context.Background(), d.Sim, d.Engine,
			timegrid.SimDay(timegrid.StudyDayOffset), timegrid.SimDay(timegrid.StudyDayOffset+7),
			stream.Config{Workers: 4})
		days := 0
		for {
			bt, err := src.Next()
			if err != nil {
				break
			}
			bt.Release() // recycle the day buffer, as the engine would
			days++
		}
		if days != 7 {
			b.Fatalf("want 7 days, got %d", days)
		}
	}
}

// --- sweep benchmarks --------------------------------------------------------

var (
	sweepBenchOnce  sync.Once
	sweepBenchWorld *experiments.World
	sweepBenchCfg   experiments.Config
	sweepBenchScens []experiments.SweepScenario
)

// sweepBenchFixture builds one shared 1000-user world (KPI enabled) and
// a 4-scenario registry set, and warms the world's cached February
// home-detection pass so every sweep benchmark measures only the study
// passes.
func sweepBenchFixture(b *testing.B) (*experiments.World, experiments.Config, []experiments.SweepScenario) {
	b.Helper()
	sweepBenchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.TargetUsers = 1000
		sweepBenchCfg = cfg
		sweepBenchWorld = experiments.NewWorld(cfg)
		sweepBenchWorld.Homes()
		for _, name := range []string{
			scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown, scenario.VoiceSurge,
		} {
			s, err := scenario.Load(name)
			if err != nil {
				panic(err)
			}
			sweepBenchScens = append(sweepBenchScens, experiments.SweepScenario{Name: name, Scenario: s})
		}
	})
	return sweepBenchWorld, sweepBenchCfg, sweepBenchScens
}

// benchmarkSweepParallel sweeps the four scenarios from day 0 (no
// shared prefixes) with up to parallel runs in flight. Output is
// bit-identical at every count (asserted by the parity tests); what
// varies is wall clock, which on multi-core hardware should approach
// serial/min(parallel, cores, scenarios).
func benchmarkSweepParallel(b *testing.B, parallel int) {
	w, cfg, scens := sweepBenchFixture(b)
	opt := experiments.SweepOptions{Parallel: parallel}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runs, err := experiments.RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{}, scens, opt); err != nil || len(runs) != len(scens) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkSweepSerial is the serial baseline of the sweep executor:
// four full-KPI scenario runs, one after another, over the one shared
// world. BenchmarkSweepParallel runs two at once (fixed, not
// GOMAXPROCS, so the concurrent path is exercised even on a single-core
// runner).
func BenchmarkSweepSerial(b *testing.B)    { benchmarkSweepParallel(b, 1) }
func BenchmarkSweepParallel(b *testing.B)  { benchmarkSweepParallel(b, 2) }
func BenchmarkSweepParallel4(b *testing.B) { benchmarkSweepParallel(b, 4) }

// sweepAllFixture builds the full 7-scenario registry set over its own
// world at the default popsim.ScaleSmall scale (the scale BenchmarkRunStandardSerial
// and the streaming benchmarks quote) — the copy-on-divergence headline
// pair runs here rather than on the small sweepBenchFixture world. At
// 1000 users the per-cell engine reduction and KPI fold, which do not
// scale with users, dominate each day and flatten the relative win of
// the shared prefix; at the production scale the per-user simulation
// work and the streaming pipeline overhead the forked path avoids are
// proportionally larger, so this pair reflects what mnosweep/ablate
// users actually see. February home detection is warmed so the pair
// measures only the study passes.
var (
	sweepAllOnce   sync.Once
	sweepAllWorld  *experiments.World
	sweepAllCfg    experiments.Config
	sweepAllScens_ []experiments.SweepScenario
)

func sweepAllFixture(b *testing.B) (*experiments.World, experiments.Config, []experiments.SweepScenario) {
	b.Helper()
	sweepAllOnce.Do(func() {
		sweepAllCfg = experiments.DefaultConfig()
		sweepAllWorld = experiments.NewWorld(sweepAllCfg)
		sweepAllWorld.Homes()
		for _, name := range scenario.Names() {
			s, err := scenario.Load(name)
			if err != nil {
				panic(err)
			}
			sweepAllScens_ = append(sweepAllScens_, experiments.SweepScenario{Name: name, Scenario: s})
		}
	})
	return sweepAllWorld, sweepAllCfg, sweepAllScens_
}

// benchmarkSweepRegistry sweeps the whole registry through the public
// executor with copy-on-divergence on or off — exactly the two sides of
// the mnosweep -share-prefix flag. Output is bit-identical either way
// (asserted by TestSharedPrefixSweepMatchesUnshared); what varies is
// wall clock: the shared path simulates each shared scenario prefix
// once and forks checkpoints at the divergence days (see PERFORMANCE.md,
// "Copy-on-divergence sweeps" for the expected gap decomposition).
func benchmarkSweepRegistry(b *testing.B, share bool) {
	w, cfg, scens := sweepAllFixture(b)
	scfg := stream.Config{Workers: 1}
	opt := experiments.SweepOptions{Parallel: 1, SharePrefix: share}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runs, err := experiments.RunSweepParallelOpts(context.Background(), w, cfg, scfg, scens, opt); err != nil || len(runs) != len(scens) {
			b.Fatal("short sweep")
		}
	}
}

func BenchmarkSweepSharedPrefix(b *testing.B)     { benchmarkSweepRegistry(b, true) }
func BenchmarkSweepUnsharedRegistry(b *testing.B) { benchmarkSweepRegistry(b, false) }

// BenchmarkQSketch measures the streaming quantile sketch hot path.
func BenchmarkQSketch(b *testing.B) {
	q := stream.NewQSketch()
	for i := 0; i < b.N; i++ {
		q.Add(float64(i%10000) + 0.5)
	}
	if q.Median() <= 0 {
		b.Fatal("bad median")
	}
}

// --- scale ladder ------------------------------------------------------------

// benchmarkScaleLadderRung builds a full stack (census, topology,
// population, simulator, KPI engine) at the given rung and measures the
// warm per-day hot path: one DayInto into a reused arena plus one
// DayAppend into a reused cell slice — the unit the 77-day study window
// multiplies. The rung's retained footprint is reported as a bytes/user
// metric from a ReadMemStats delta around the stack build (see
// PERFORMANCE.md, "Scale ladder"); TestBytesPerUserBudget enforces the
// documented per-user budget.
func benchmarkScaleLadderRung(b *testing.B, users int) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	d := experiments.NewDataset(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if delta < 0 {
		delta = 0
	}

	buf := mobsim.NewDayBuffer()
	day0 := timegrid.SimDay(timegrid.StudyDayOffset)
	var cells []traffic.CellDay
	cells = d.Engine.DayAppend(cells, day0, d.Sim.DayInto(buf, day0)) // warm the arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := timegrid.SimDay(timegrid.StudyDayOffset + i%timegrid.StudyDays)
		cells = d.Engine.DayAppend(cells[:0], day, d.Sim.DayInto(buf, day))
	}
	if len(cells) == 0 {
		b.Fatal("no cells")
	}
	// Reported after the loop: ResetTimer discards metrics set before it.
	b.ReportMetric(float64(delta)/float64(users), "bytes/user")
}

// BenchmarkScaleLadder walks the memory-diet scale ladder. The small
// rung is the default test/figure scale, the medium rung is the CI
// streaming smoke scale, and the large rung is the paper's full-MNO
// order of magnitude — it documents that a simulated day at a million
// subscribers completes in seconds on stock hardware.
func BenchmarkScaleLadder(b *testing.B) {
	for _, users := range []int{popsim.ScaleSmall, popsim.ScaleMedium, popsim.ScaleLarge} {
		b.Run(benchName("users", users), func(b *testing.B) {
			benchmarkScaleLadderRung(b, users)
		})
	}
}

// --- extension and infrastructure benchmarks --------------------------------

func BenchmarkExtSEIR(b *testing.B) {
	r := benchResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := experiments.ExtSEIR(r); !allPass(f) {
			b.Fatal("ext-seir checks failed")
		}
	}
}

func BenchmarkSEIRIntegration(b *testing.B) {
	p := epi.UK2020()
	for i := 0; i < b.N; i++ {
		if _, err := epi.Run(p, 365, epi.ConstantContact(0.8)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridNearest(b *testing.B) {
	r := benchResults(b)
	topo := r.Dataset.Topology
	pts := make([]geo.Point, 256)
	src := rng.New(1)
	for i := range pts {
		pts[i] = geo.Pt(src.Range(200, 650), src.Range(50, 600))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.NearestTower(pts[i%len(pts)])
	}
}

func BenchmarkReselectionNeighbor(b *testing.B) {
	r := benchResults(b)
	topo := r.Dataset.Topology
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw := &topo.Towers[i%len(topo.Towers)]
		topo.ReselectionNeighbor(tw.Loc, tw.ID)
	}
}

func BenchmarkTraceFeedRoundTrip(b *testing.B) {
	r := benchResults(b)
	day := timegrid.SimDay(timegrid.StudyDayOffset + 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := feeds.NewTraceWriter(&buf)
		if err := w.WriteDay(day, benchDay); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		rd, err := feeds.NewTraceReaderOpts(&buf, feeds.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rd.ReadDayInto(mobsim.NewDayBuffer()); err != nil {
			b.Fatal(err)
		}
	}
	_ = r
}

// --- feed replay: CSV vs columnar -------------------------------------------

// feedReplayDays is the number of simulated days each replay benchmark
// encodes and decodes per iteration.
const feedReplayDays = 3

// benchmarkFeedReplay builds a stack at the given rung, encodes
// feedReplayDays days of traces + KPI records in one format, and
// measures a full decode pass over the feed (the read side of
// `mnostream -feeds`). Reported metrics: bytes/day is the encoded feed
// size per day, ns/day the replay time per day. Both paths open fresh
// readers per pass, as feeds.OpenDir does.
func benchmarkFeedReplay(b *testing.B, users int, col bool) {
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	d := experiments.NewDataset(cfg)

	var traceBuf, kpiBuf bytes.Buffer
	var tw interface {
		WriteDay(timegrid.SimDay, []mobsim.DayTrace) error
		Flush() error
	}
	var kw interface {
		WriteDay(timegrid.SimDay, []traffic.CellDay) error
		Flush() error
	}
	if col {
		tw, kw = colfmt.NewTraceWriter(&traceBuf), colfmt.NewKPIWriter(&kpiBuf)
	} else {
		tw, kw = feeds.NewTraceWriter(&traceBuf), feeds.NewKPIWriter(&kpiBuf)
	}
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(0); day < feedReplayDays; day++ {
		traces := d.Sim.DayInto(buf, day)
		if err := tw.WriteDay(day, traces); err != nil {
			b.Fatal(err)
		}
		cells = d.Engine.DayAppend(cells[:0], day, traces)
		if err := kw.WriteDay(day, cells); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := kw.Flush(); err != nil {
		b.Fatal(err)
	}
	feedBytes := traceBuf.Len() + kpiBuf.Len()

	tr := bytes.NewReader(traceBuf.Bytes())
	kr := bytes.NewReader(kpiBuf.Bytes())
	openTrace := func() (feeds.TraceDayReader, error) {
		tr.Reset(traceBuf.Bytes())
		if col {
			return colfmt.NewTraceReaderOpts(tr, colfmt.Options{})
		}
		return feeds.NewTraceReaderOpts(tr, feeds.Options{})
	}
	openKPI := func() (feeds.KPIDayReader, error) {
		kr.Reset(kpiBuf.Bytes())
		if col {
			return colfmt.NewKPIReaderOpts(kr, colfmt.Options{})
		}
		return feeds.NewKPIReaderOpts(kr, feeds.Options{})
	}

	visits := 0
	replay := func() error {
		trd, err := openTrace()
		if err != nil {
			return err
		}
		for {
			if _, err := trd.ReadDayInto(buf); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			visits += buf.Len()
		}
		krd, err := openKPI()
		if err != nil {
			return err
		}
		for {
			day, out, err := krd.ReadDayAppend(cells[:0])
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			_, cells = day, out
		}
		return nil
	}
	if err := replay(); err != nil { // warm the arenas before timing
		b.Fatal(err)
	}
	if visits == 0 {
		b.Fatal("replay decoded no visits")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replay(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/feedReplayDays, "ns/day")
	b.ReportMetric(float64(feedBytes)/feedReplayDays, "bytes/day")
}

// partitionDays is the number of study days BenchmarkPartitionDir's
// feed holds.
const partitionDays = 14

// BenchmarkPartitionDir cold-partitions a columnar trace and KPI feed
// of partitionDays days at the 8k rung into 2 shards: PartitionDir's
// user range pass, then its routing pass through fresh readers, shard
// buckets and shard writers, the feeds.partition stage of the
// replay-15k benchmark workload.
func BenchmarkPartitionDir(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = popsim.ScaleSmall
	d := experiments.NewDataset(cfg)
	in, out := b.TempDir(), b.TempDir()
	w, err := feeds.CreateDir(in, feeds.FormatCol, true)
	if err != nil {
		b.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(timegrid.StudyDayOffset); day < timegrid.StudyDayOffset+partitionDays; day++ {
		traces := d.Sim.DayInto(buf, day)
		cells = d.Engine.DayAppend(cells[:0], day, traces)
		if err := errors.Join(w.WriteTraces(day, traces), w.WriteKPI(day, cells)); err != nil {
			b.Fatal(err)
		}
	}
	if err := errors.Join(w.Close(), w.WriteMeta(feeds.Meta{Users: cfg.TargetUsers, Seed: cfg.Seed})); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feeds.PartitionDir(in, out, 2, feeds.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedReplayCSV and BenchmarkFeedReplayCol compare feed decode
// throughput at the 8k (test/figure) and 100k (CI streaming) rungs —
// the measured table lives in PERFORMANCE.md, "Columnar feeds".
func BenchmarkFeedReplayCSV(b *testing.B) {
	for _, users := range []int{popsim.ScaleSmall, popsim.ScaleMedium} {
		b.Run(benchName("users", users), func(b *testing.B) {
			benchmarkFeedReplay(b, users, false)
		})
	}
}

func BenchmarkFeedReplayCol(b *testing.B) {
	for _, users := range []int{popsim.ScaleSmall, popsim.ScaleMedium} {
		b.Run(benchName("users", users), func(b *testing.B) {
			benchmarkFeedReplay(b, users, true)
		})
	}
}
