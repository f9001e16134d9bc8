// Command analyze re-runs the paper's mobility analysis from a
// persisted feed directory instead of re-simulating: the replay
// counterpart of `mnosim -raw`. It prints the home-detection census fit
// (Fig. 2) and the national gyration and entropy table. The replay runs
// on the streaming engine, as `mnostream -feeds` does, so CSV and
// columnar feeds print identical output. The seed and user count MUST
// match the run that produced the feed — traces carry tower and user
// IDs that are only meaningful against the same synthetic UK build; a
// mismatch with the directory's meta sidecar is a usage error.
//
//	mnosim  -out data -users 4000 -seed 7 -raw [-format col]
//	analyze -feeds data -users 4000 -seed 7 [-lenient]
//
// Corrupt feed rows abort the replay with file:line context by
// default; -lenient skips and reports them instead (still exit 0).
// Exit codes: 0 success, 1 runtime failure, 2 bad usage, 130
// interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

func main() {
	var (
		feedDir = flag.String("feeds", "", "feed directory to replay (from mnosim -raw)")
		users   = flag.Int("users", popsim.ScaleSmall, "user count of the original run")
		seed    = flag.Uint64("seed", 42, "seed of the original run")
		lenient = flag.Bool("lenient", false, "skip corrupt feed rows (reported on stderr) instead of failing the replay")
	)
	flag.Parse()
	ctx, stop := cli.SignalContext()
	defer stop()
	cli.Exit("analyze", run(ctx, *feedDir, *users, *seed, *lenient))
}

func run(ctx context.Context, feedDir string, users int, seed uint64, lenient bool) error {
	if feedDir == "" {
		return cli.Usagef("-feeds is required")
	}
	_, err := feeds.ReadMetaFor(feedDir, users, seed)
	if errors.Is(err, feeds.ErrStackMismatch) {
		return cli.Usagef("%w", err)
	}
	if err != nil {
		return err
	}

	// Rebuild the identical stack (no simulation is run).
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	cfg.Seed = seed
	cfg.SkipKPI = true
	d := experiments.NewDataset(cfg)

	opt := feeds.Options{Lenient: lenient}
	if lenient {
		opt.OnSkip = func(name string, line int, err error) {
			fmt.Fprintf(os.Stderr, "analyze: skipping corrupt row %s:%d: %v\n", name, line, err)
		}
	}
	fs, err := feeds.OpenDirOpts(feedDir, opt)
	if err != nil {
		return err
	}
	defer fs.Close()

	eng := stream.NewEngine(stream.Config{})
	scfg := eng.Config()
	hd := stream.NewHomes(d.Topology, scfg.Shards)
	mob := core.NewMobilityAnalyzer(d.Pop, cfg.TopN)
	var days dayCounter
	eng.AddTraceSharder(hd)
	eng.AddTraceSharder(stream.NewMobility(mob, scfg.Shards))
	eng.AddTraceConsumer(&days)
	if err := eng.Run(ctx, stream.Prefetch(fs, scfg.Buffer)); err != nil {
		return err
	}
	if n := fs.Skipped(); n > 0 {
		fmt.Fprintf(os.Stderr, "analyze: skipped %d corrupt feed rows\n", n)
	}
	fmt.Fprintf(os.Stderr, "replayed %d days from %s\n\n", days, feedDir)

	homes := hd.Detect()
	scale := float64(len(d.Pop.Native())) / float64(d.Model.TotalPopulation())
	if v, err := core.ValidateAgainstCensus(homes, d.Model, scale); err == nil {
		fmt.Printf("home detection: %d homes, census r² = %.3f\n\n", len(homes), v.Fit.R2)
	}

	gyr := mob.NationalSeries(core.MetricGyration)
	ent := mob.NationalSeries(core.MetricEntropy)
	t := stats.Table{Title: "national mobility, Δ% vs week 9 (weekly means)", ColNames: weekCols()}
	t.AddRow("gyration", core.DeltaSeries(gyr, stats.Mean(gyr.Values[:7])).WeeklyMeans().Values)
	t.AddRow("entropy", core.DeltaSeries(ent, stats.Mean(ent.Values[:7])).WeeklyMeans().Values)
	report.WriteTable(os.Stdout, &t)
	return nil
}

// dayCounter is a merge-stage consumer counting the replayed days.
type dayCounter int

func (c *dayCounter) ConsumeDay(timegrid.SimDay, []mobsim.DayTrace) { *c++ }

func weekCols() []string {
	out := make([]string, 0, timegrid.StudyWeeks)
	for _, w := range timegrid.Weeks() {
		out = append(out, fmt.Sprintf("w%d", int(w)))
	}
	return out
}
