// London relocation: regenerate the Fig. 7 analysis — where did Inner
// London residents go during the lockdown? The pipeline detects homes
// from February nights, tracks the cohort through the study window, and
// prints the mobility matrix rows for the top receiving counties.
//
//	go run ./examples/london_relocation
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = 6000
	cfg.SkipKPI = true
	fmt.Println("detecting Inner London residents and tracking them through lockdown ...")
	r, err := experiments.RunStreamingOn(context.Background(), experiments.NewDataset(cfg), stream.Config{})
	if err != nil {
		log.Fatal(err)
	}

	m := r.Matrix
	fmt.Printf("cohort: %d users with inferred Inner London homes\n\n", m.CohortSize())

	// Weekly view of the matrix (the paper plots days; weeks read better
	// in a terminal).
	home := m.HomePresenceSeries()
	base := stats.Mean(home.Values[:7])
	hw := core.DeltaSeries(home, base).WeeklyMeans()
	fmt.Printf("  %-16s %s", "present at home", report.Sparkline(hw.Values))
	for i, v := range hw.Values {
		fmt.Printf(" w%d:%+.0f%%", timegrid.FirstWeek+i, v)
	}
	fmt.Println()

	for _, c := range m.TopDestinations(6) {
		p := m.PresenceSeries(c)
		b := stats.Mean(p.Values[:7])
		pw := core.DeltaSeries(p, b).WeeklyMeans()
		fmt.Printf("  %-16s %s", c.Name, report.Sparkline(pw.Values))
		for i, v := range pw.Values {
			fmt.Printf(" w%d:%+.0f%%", timegrid.FirstWeek+i, v)
		}
		fmt.Println()
	}

	lockWeek := 13 - timegrid.FirstWeek
	fmt.Printf("\ntakeaway: from week 13 a sustained %.0f%% of the cohort is absent from\n", -hw.Values[lockWeek])
	fmt.Println("Inner London (paper: ~10%) — students leaving campuses, long-term")
	fmt.Println("tourists departing, and residents riding out the lockdown in second")
	fmt.Println("homes, with Hampshire the top destination.")

	// The 21-22 March pre-lockdown exodus towards the coast.
	if es, ok := r.Dataset.Model.CountyByName("East Sussex"); ok {
		p := m.PresenceSeries(es)
		b := stats.Mean(p.Values[:7])
		spike := (p.Values[26] + p.Values[27]) / 2
		fmt.Printf("\nEast Sussex presence on 21-22 March: %.1f vs %.1f week-9 average\n", spike, b)
		fmt.Println("(the paper's pre-lockdown weekend exodus spike)")
	}
}
