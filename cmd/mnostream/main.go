// Command mnostream runs the sharded streaming analytics engine over the
// MNO feeds and emits one rolling summary line per simulated day: active
// users, national mobility averages (§2.3), sketch-estimated KPI medians
// (§2.4) and control-plane totals (§2.2).
//
// Two input modes:
//
//	mnostream -feeds ./data [...]   replay a feed directory written by
//	                                `mnosim -raw` (traces.csv required;
//	                                kpi.csv / events.csv used if present).
//	                                Pass the same -users/-seed the feeds
//	                                were generated with: feeds carry tower
//	                                and user IDs that are only meaningful
//	                                relative to that synthetic stack.
//	mnostream [...]                 run the simulator inline (KPI engine
//	                                and control-plane generation included)
//	                                and stream it straight into analytics.
//
// Multi-process sweeps: -partial FILE additionally serializes the
// replay's mergeable aggregates in the binary internal/partial format.
// Split a feed directory into user-range shards with `feedconv
// -partition N`, replay each shard in its own process with -partial,
// then fold the files with `feedmerge`: the merged table is
// bit-identical to a single-process replay of the whole directory (KPI
// sketch merges are exact; mobility is re-folded in user order).
//
// Engine sizing: -workers bounds the goroutines producing days and
// running shard tasks, -shards the logical partitions. Summaries do not
// depend on -workers, and the figure-grade pipeline behind
// experiments.RunStreamingOn is bit-identical to the serial pipeline at
// any of these settings.
//
// In inline mode -scenario selects the behavioural scenario (a registry
// name — see `mnosweep -list` — or a JSON spec file). In -feeds mode the
// scenario is already baked into the replayed traces, so the flag is
// rejected; the feed's own scenario is recorded in its meta sidecar.
//
// Reliability (see RELIABILITY.md): corrupt feed rows abort a replay
// with file:line context by default; -lenient skips them instead,
// reporting each on stderr and the total at exit (still exit 0).
// SIGINT/SIGTERM cancels the run but still flushes the -metrics-out
// snapshot before exiting 130. -fault arms the deterministic fault
// harness (site:kind:key rules, internal/fault) for chaos drills.
// Exit codes: 0 success, 1 runtime failure, 2 bad usage, 130
// interrupted.
//
// Observability: -metrics ADDR serves the live metric registry and
// net/http/pprof while the run is in flight, -metrics-out FILE writes
// the end-of-run snapshot (obs/v1 JSON, diffable with `benchdiff -obs`);
// either flag also prints the human metric table at exit. See
// PERFORMANCE.md, "Observability".
//
// Usage:
//
//	mnostream [-feeds DIR] [-lenient] [-partial FILE] [-users N] [-seed S]
//	          [-scenario NAME|FILE.json]
//	          [-workers W] [-shards K] [-days D]
//	          [-fault SPEC] [-metrics ADDR] [-metrics-out FILE]
//	          [-cpuprofile F] [-memprofile F]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/partial"
	"repro/internal/popsim"
	"repro/internal/scenario"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func main() {
	var (
		feedDir    = flag.String("feeds", "", "feed directory to replay (empty: run the simulator inline)")
		lenient    = flag.Bool("lenient", false, "skip corrupt feed rows (reported on stderr) instead of failing the replay")
		users      = flag.Int("users", popsim.ScaleSmall, "synthetic native smartphone users (must match the feed's value in -feeds mode)")
		seed       = flag.Uint64("seed", 42, "master random seed (must match the feed's value in -feeds mode)")
		scen       = flag.String("scenario", "", "behavioural scenario for inline mode: registry name or JSON spec file (empty: the calibrated default)")
		workers    = flag.Int("workers", 0, "worker goroutines (0: GOMAXPROCS)")
		shards     = flag.Int("shards", 0, "logical shards (0: default)")
		days       = flag.Int("days", timegrid.SimDays, "days to stream in inline mode")
		noSig      = flag.Bool("nosignaling", false, "skip control-plane generation in inline mode")
		faultSpec  = flag.String("fault", "", "deterministic fault injection spec: site:kind:key[:delay][,...] (see internal/fault)")
		partialOut = flag.String("partial", "", "write the replay's mergeable partial (internal/partial binary format) to FILE; -feeds mode only — merge shard partials with feedmerge")
		of         = obs.Flags()
	)
	flag.Parse()

	ctx, stop := cli.SignalContext()
	defer stop()

	err := of.Run(func() error {
		return run(ctx, *feedDir, *lenient, *users, *seed, *scen, *workers, *shards, *days, !*noSig, *faultSpec, *partialOut, of.Registry())
	})
	cli.Exit("mnostream", err)
}

func run(ctx context.Context, feedDir string, lenient bool, users int, seed uint64, scenName string, workers, shards, days int, withSignaling bool, faultSpec, partialOut string, reg *obs.Registry) error {
	fi, err := fault.ParseSpec(faultSpec)
	if err != nil {
		return cli.Usagef("%w", err)
	}
	scfg := stream.Config{Workers: workers, Shards: shards, Metrics: reg, Fault: fi}.WithDefaults()

	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	cfg.Seed = seed
	if feedDir != "" {
		cfg.SkipKPI = true // KPI records come from the feed, if at all
		if scenName != "" {
			return cli.Usagef("-scenario only applies to inline mode; the feed in %s was generated under its own scenario", feedDir)
		}
	} else if scenName != "" {
		s, err := scenario.Load(scenName)
		if err != nil {
			return cli.Usagef("%w", err)
		}
		cfg.Scenario = s
	}
	if lenient && feedDir == "" {
		return cli.Usagef("-lenient only applies to -feeds mode; inline simulation has no corrupt rows to skip")
	}
	if partialOut != "" && feedDir == "" {
		return cli.Usagef("-partial only applies to -feeds mode; it serializes a replay for feedmerge")
	}
	d := experiments.NewDataset(cfg)

	eng := stream.NewEngine(scfg)
	mob := stream.NewRollingMobility(d.Topology, cfg.TopN, scfg.Shards)
	kpi := stream.NewKPIMedians(scfg.Shards)
	eng.AddTraceSharder(mob)
	eng.AddKPISharder(kpi)

	gen := signaling.NewGenerator(d.Pop, cfg.Seed)
	var sig *stream.Signaling
	var src stream.Source
	var fs *feeds.FeedSource
	var writePartial func() error
	switch {
	case feedDir != "":
		meta, err := feeds.ReadMetaFor(feedDir, users, seed)
		if errors.Is(err, feeds.ErrStackMismatch) {
			return cli.Usagef("%w", err)
		}
		if err != nil {
			return err
		}
		if partialOut != "" {
			rec := partial.NewRecorder(d.Topology, cfg.TopN, meta)
			eng.AddTraceConsumer(rec.Traces())
			eng.AddKPIConsumer(rec.KPI())
			eng.AddEventSharder(rec.Events())
			writePartial = func() error { return partial.WriteFile(partialOut, rec.Partial()) }
		}
		// Skipped-row accounting: every lenient skip is reported as it
		// happens and counted (feeds.skipped_rows when metrics are on).
		var skipCounter *obs.Counter
		if reg != nil {
			skipCounter = reg.Counter("feeds.skipped_rows")
		}
		opt := feeds.Options{Lenient: lenient}
		if lenient {
			opt.OnSkip = func(name string, line int, err error) {
				skipCounter.Inc()
				fmt.Fprintf(os.Stderr, "mnostream: skipping corrupt row %s:%d: %v\n", name, line, err)
			}
		}
		fs, err = feeds.OpenDirOpts(feedDir, opt)
		if err != nil {
			return err
		}
		defer fs.Close()
		fs.WithFault(fi)
		sig = stream.NewSignaling(gen, d.Topology, scfg.Shards, false)
		eng.AddEventSharder(sig.Events())
		src = stream.Prefetch(fs, scfg.Buffer)
	default:
		if withSignaling {
			sig = stream.NewSignaling(gen, d.Topology, scfg.Shards, true)
			eng.AddTraceSharder(sig)
		}
		limit := timegrid.SimDay(days)
		if limit > timegrid.SimDays {
			limit = timegrid.SimDays
		}
		src = stream.NewSimSource(ctx, d.Sim, d.Engine, 0, limit, scfg)
	}

	p := &printer{mob: mob, kpi: kpi, sig: sig, start: time.Now()}
	eng.AddTraceConsumer(p)

	fmt.Println("date        day users  entropy gyr_km  cells dl_med_mb conn_med  events   fail_pct")
	if err := eng.Run(ctx, src); err != nil {
		// The partial summary still matters on an interrupt: report how
		// far the stream got before handing the error (and its exit
		// code) back. The obs wrapper flushes -metrics-out either way.
		fmt.Fprintf(os.Stderr, "mnostream: stopped after %d days: %v\n", p.daysDone, err)
		return err
	}
	if fs != nil && fs.Skipped() > 0 {
		fmt.Fprintf(os.Stderr, "mnostream: skipped %d corrupt feed rows\n", fs.Skipped())
	}
	if writePartial != nil {
		if err := writePartial(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mnostream: partial written to %s\n", partialOut)
	}
	fmt.Fprintf(os.Stderr, "mnostream: %d days in %v (%d workers, %d shards)\n",
		p.daysDone, time.Since(p.start).Round(time.Millisecond), scfg.Workers, scfg.Shards)
	return nil
}

// printer is a serial merge-stage consumer that renders one summary line
// per day after every sharded stage has merged.
type printer struct {
	mob      *stream.RollingMobility
	kpi      *stream.KPIMedians
	sig      *stream.Signaling
	start    time.Time
	daysDone int

	prevEvents, prevFailures int64
}

// ConsumeDay implements stream.TraceConsumer; it runs after every
// sharded stage of the day has merged.
func (p *printer) ConsumeDay(day timegrid.SimDay, _ []mobsim.DayTrace) {
	p.daysDone++
	m := p.mob.Last()

	cells, dlMed, connMed := 0, 0.0, 0.0
	if k := p.kpi.Last(); k.Day == day {
		cells = k.Cells
		dlMed = k.Medians[traffic.DLVolume]
		connMed = k.Medians[traffic.ConnectedUsers]
	}

	var dayEvents int64
	failPct := 0.0
	if p.sig != nil {
		events, failures := p.sig.Totals()
		dayEvents = events - p.prevEvents
		if dayEvents > 0 {
			failPct = float64(failures-p.prevFailures) / float64(dayEvents) * 100
		}
		p.prevEvents, p.prevFailures = events, failures
	}

	fmt.Printf("%s %3d %6d %7.3f %6.2f %6d %9.2f %8.3f %8d %8.3f\n",
		timegrid.DateOfSimDay(day).Format("2006-01-02"), int(day), m.Users,
		m.AvgEntropy, m.AvgGyration, cells, dlMed, connMed, dayEvents, failPct)
}
