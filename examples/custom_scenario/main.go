// Custom scenario: the library is not limited to replaying March 2020 —
// pandemic.Builder lets you define counterfactual intervention
// timelines. This example compares the measured mobility collapse under
// three scenarios: the calibrated COVID timeline, a lockdown imposed two
// weeks earlier, and a "voluntary distancing only" world with no order.
//
//	go run ./examples/custom_scenario
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pandemic"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

func main() {
	early, err := pandemic.NewBuilder().
		Activity(0, 1.0).
		Activity(7, 0.95).
		Activity(9, 0.60). // order lands on 4 March instead of 23 March
		Activity(14, 0.44).
		Activity(48, 0.46).
		Activity(76, 0.50).
		Voice(9, 2.3).
		Voice(14, 2.5).
		Voice(76, 1.8).
		HomeCellular(14, 0.78).
		WithRelocation().
		CaseCurve(80_000, 0.16, 38). // earlier suppression, smaller wave
		Build()
	if err != nil {
		log.Fatal(err)
	}
	voluntary, err := pandemic.NewBuilder().
		Activity(0, 1.0).
		Activity(16, 0.92). // declaration nudges behaviour …
		Activity(28, 0.80). // … but nothing is ever ordered
		Activity(76, 0.78).
		Voice(28, 1.5).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	scens := []experiments.SweepScenario{
		{Name: "calibrated COVID timeline"}, // nil Scenario = pandemic.Default()
		{Name: "lockdown two weeks earlier", Scenario: early},
		{Name: "voluntary distancing only", Scenario: voluntary},
	}

	// The world — census, radio topology, population — is scenario-
	// independent: build it once and sweep the scenarios over it. Shared
	// timeline prefixes are simulated once and forked where the
	// scenarios diverge. Mobility only: no KPI engine.
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = 3000
	cfg.SkipKPI = true
	world := experiments.NewWorld(cfg)
	runs, err := experiments.RunSweepParallelOpts(context.Background(), world, cfg, stream.Config{}, scens,
		experiments.SweepOptions{Parallel: 2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("national radius of gyration, Δ% vs week 9 (weekly means):")
	for _, run := range runs {
		s := run.Results.Mobility.NationalSeries(core.MetricGyration)
		w := core.DeltaSeries(s, stats.Mean(s.Values[:7])).WeeklyMeans()
		trough, ti := w.Min()
		fmt.Printf("  %-28s %s  trough %+.0f%% (week %d)\n",
			run.Name, report.Sparkline(w.Values), trough, timegrid.FirstWeek+ti)
	}

	fmt.Println("\nthe ordered-lockdown scenarios collapse mobility by ~60%; voluntary")
	fmt.Println("distancing alone stops well short of that — the paper's Fig. 4 point")
	fmt.Println("that the enforced order, not case counts, moved mobility.")
}
