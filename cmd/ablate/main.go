// Command ablate runs design-choice ablations and prints how each knob
// moves the headline results:
//
//   - interconnect: headroom sweep for the voice-loss incident
//   - topn: the per-user tower filter (5/10/20/∞)
//   - nights: the home-detection minimum-nights rule
//   - offload: the WiFi-offload depth driving the DL volume drop
//
// Every ablation shares one World (census + topology + population,
// built once) and instantiates the stack it needs on top. Scenario
// comparisons are mnosweep's job (-baseline NAME for the delta table).
//
// Usage:
//
//	ablate [-which all|interconnect|topn|nights|offload] [-users N]
//	       [-cpuprofile F] [-memprofile F]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mobsim"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// ablation is one knob sweep over the shared world.
type ablation struct {
	name string
	fn   func(*experiments.World)
}

var ablations = []ablation{
	{"interconnect", ablateInterconnect},
	{"topn", ablateTopN},
	{"nights", ablateNights},
	{"offload", ablateOffload},
}

func main() {
	var (
		which = flag.String("which", "all", "ablation to run")
		users = flag.Int("users", 4000, "synthetic users")
		seed  = flag.Uint64("seed", 42, "random seed")
		pf    = prof.Flags()
	)
	flag.Parse()

	var picked []ablation
	for _, a := range ablations {
		if *which == "all" || strings.EqualFold(*which, a.name) {
			picked = append(picked, a)
		}
	}
	if len(picked) == 0 {
		cli.Exit("ablate", cli.Usagef("unknown ablation %q (want all, interconnect, topn, nights or offload)", *which))
	}

	err := pf.Run(func() error {
		cfg := experiments.DefaultConfig()
		cfg.TargetUsers = *users
		cfg.Seed = *seed
		world := experiments.NewWorld(cfg)
		for _, a := range picked {
			fmt.Printf("=== ablation: %s ===\n", a.name)
			a.fn(world)
			fmt.Println()
		}
		return nil
	})
	cli.Exit("ablate", err)
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
