// Command ablate runs the design-choice ablations called out in
// DESIGN.md §5 and prints how each knob moves the headline results:
//
//   - scenario: registry timelines (default-covid, no-pandemic,
//     early-lockdown) compared on the sweep runner
//   - interconnect: headroom sweep for the voice-loss incident
//   - topn: the per-user tower filter (5/10/20/∞)
//   - nights: the home-detection minimum-nights rule
//   - offload: the WiFi-offload depth driving the DL volume drop
//
// Every ablation shares one World (census + topology + population,
// built once); each then instantiates whatever per-scenario or
// per-parameter stack it needs on top.
//
// -share-prefix (default on) runs the scenario ablation
// copy-on-divergence: shared scenario prefixes are simulated once and
// forked at the divergence day (bit-identical output, see
// PERFORMANCE.md, "Copy-on-divergence sweeps").
//
// Usage:
//
//	ablate [-which all|scenario|interconnect|topn|nights|offload] [-users N]
//	       [-share-prefix=BOOL] [-cpuprofile F] [-memprofile F]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mobsim"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func main() {
	var (
		which       = flag.String("which", "all", "ablation to run")
		users       = flag.Int("users", 4000, "synthetic users")
		seed        = flag.Uint64("seed", 42, "random seed")
		sharePrefix = flag.Bool("share-prefix", true, "simulate shared scenario prefixes once and fork at the divergence day (scenario ablation; bit-identical output)")
		pf          = prof.Flags()
	)
	flag.Parse()

	err := pf.Run(func() error {
		cfg := experiments.DefaultConfig()
		cfg.TargetUsers = *users
		cfg.Seed = *seed
		world := experiments.NewWorld(cfg)

		run := func(name string, fn func(*experiments.World)) {
			if *which == "all" || strings.EqualFold(*which, name) {
				fmt.Printf("=== ablation: %s ===\n", name)
				fn(world)
				fmt.Println()
			}
		}
		run("scenario", func(w *experiments.World) { ablateScenario(w, *sharePrefix) })
		run("interconnect", ablateInterconnect)
		run("topn", ablateTopN)
		run("nights", ablateNights)
		run("offload", ablateOffload)
		return nil
	})
	cli.Exit("ablate", err)
}

// ablateScenario compares counterfactual timelines on the parallel
// sweep runner: the shared world, up to two scenarios in flight at a
// time (each streaming run kept single-worker so the goroutine budget
// stays bounded), the headline statistics extracted by
// experiments.Headlines, and every timeline differenced against the
// no-pandemic baseline. sharePrefix runs it copy-on-divergence
// (bit-identical output, shared prefixes simulated once).
func ablateScenario(w *experiments.World, sharePrefix bool) {
	cfg := experiments.DefaultConfig()
	cfg.SkipKPI = true
	var scens []experiments.SweepScenario
	for _, name := range []string{scenario.DefaultCovid, scenario.NoPandemic, scenario.EarlyLockdown} {
		s, err := scenario.Load(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		scens = append(scens, experiments.SweepScenario{Name: name, Scenario: s})
	}
	runs, err := experiments.RunSweepParallelOpts(context.Background(), w, cfg, stream.Config{Workers: 1}, scens,
		experiments.SweepOptions{Parallel: 2, SharePrefix: sharePrefix})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	for _, run := range runs {
		for _, h := range run.Headlines {
			if h.Name == "gyration trough Δ%" {
				fmt.Printf("  %-22s gyration trough %+.1f%%\n", run.Name, h.Value)
			}
		}
	}
	delta, err := experiments.DeltaTable(runs, scenario.NoPandemic)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	for _, label := range []string{"gyration mean Δ%", "gyration trough shift (days)"} {
		if row, ok := delta.Row(label); ok {
			fmt.Printf("  vs %s: %s:", scenario.NoPandemic, label)
			for i, name := range delta.ColNames {
				fmt.Printf(" %s %+.1f", name, row.Values[i])
			}
			fmt.Println()
		}
	}
}

// mobilityStack instantiates the default scenario without the traffic
// engine, for ablations that only need traces.
func mobilityStack(w *experiments.World) *experiments.Dataset {
	return w.Instantiate(experiments.Config{SkipKPI: true})
}

func ablateInterconnect(w *experiments.World) {
	d := mobilityStack(w)
	day := timegrid.StudyDay(17).ToSimDay() // mid week 11 surge
	traces := d.Sim.DayInto(mobsim.NewDayBuffer(), day)
	baseDay := timegrid.StudyDay(2).ToSimDay()
	baseTraces := d.Sim.DayInto(mobsim.NewDayBuffer(), baseDay)
	var cells []traffic.CellDay
	for _, headroom := range []float64{0.9, 1.0, 1.2, 1.5, 2.0, 3.0} {
		params := traffic.DefaultParams()
		params.InterconnectHeadroom = headroom
		eng := traffic.NewEngine(d.Pop, d.Scenario, params, d.Config.Seed)
		cells = eng.DayAppend(cells[:0], baseDay, baseTraces)
		base := meanLoss(cells)
		cells = eng.DayAppend(cells[:0], day, traces)
		surge := meanLoss(cells)
		fmt.Printf("  headroom %.1f×: DL voice loss %+.0f%% vs baseline\n",
			headroom, stats.DeltaPercent(surge, base))
	}
}

func meanLoss(cells []traffic.CellDay) float64 {
	var s float64
	for i := range cells {
		s += cells[i].Values[traffic.VoiceDLLoss]
	}
	return s / float64(len(cells))
}

func ablateTopN(w *experiments.World) {
	d := mobilityStack(w)
	day := timegrid.StudyDay(2).ToSimDay()
	traces := d.Sim.DayInto(mobsim.NewDayBuffer(), day)
	var mg core.VisitMerger
	for _, n := range []int{5, 10, 20, 0} {
		var e, g stats.Accumulator
		for i := range traces {
			m := mg.DayMetrics(&traces[i], d.Topology, n)
			e.Add(m.Entropy)
			g.Add(m.Gyration)
		}
		label := fmt.Sprintf("top-%d", n)
		if n == 0 {
			label = "unfiltered"
		}
		fmt.Printf("  %-11s mean entropy %.4f, mean gyration %.3f km\n", label, e.Mean(), g.Mean())
	}
}

// ablateNights runs one February pass into a single detector and
// detects once per threshold: MinNights only filters at Detect time.
func ablateNights(w *experiments.World) {
	d := mobilityStack(w)
	hd := core.NewHomeDetector(d.Topology)
	buf := mobsim.NewDayBuffer()
	for day := timegrid.SimDay(0); day < timegrid.FebruaryDays; day++ {
		hd.ConsumeDay(day, d.Sim.DayInto(buf, day))
	}
	scale := float64(len(d.Pop.Native())) / float64(d.Model.TotalPopulation())
	for _, nights := range []int{7, 14, 21, 28} {
		hd.MinNights = nights
		homes := hd.Detect()
		v, err := core.ValidateAgainstCensus(homes, d.Model, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		fmt.Printf("  min %2d nights: %5d homes (%.0f%% of users), census r² %.3f\n",
			nights, len(homes), 100*float64(len(homes))/float64(len(d.Pop.Native())), v.Fit.R2)
	}
}

func ablateOffload(w *experiments.World) {
	d := mobilityStack(w)
	baseDay := timegrid.StudyDay(2).ToSimDay()
	lockDay := timegrid.StudyDay(38).ToSimDay()
	baseTraces := d.Sim.DayInto(mobsim.NewDayBuffer(), baseDay)
	lockTraces := d.Sim.DayInto(mobsim.NewDayBuffer(), lockDay)
	var cells []traffic.CellDay
	for _, share := range []float64{0.35, 0.52, 0.70, 0.90} {
		params := traffic.DefaultParams()
		params.HomeCellularShare = share
		eng := traffic.NewEngine(d.Pop, d.Scenario, params, d.Config.Seed)
		cells = eng.DayAppend(cells[:0], baseDay, baseTraces)
		base := sumDL(cells)
		cells = eng.DayAppend(cells[:0], lockDay, lockTraces)
		lock := sumDL(cells)
		fmt.Printf("  home cellular share %.2f: lockdown DL volume %+.0f%% vs baseline\n",
			share, stats.DeltaPercent(lock, base))
	}
}

func sumDL(cells []traffic.CellDay) float64 {
	var s float64
	for i := range cells {
		s += cells[i].Values[traffic.DLVolume]
	}
	return s
}
