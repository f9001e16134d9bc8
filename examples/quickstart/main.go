// Quickstart: build the synthetic UK, simulate the COVID-19 window, and
// print the headline mobility result of the paper — the ~50% collapse of
// the radius of gyration after the 23 March stay-at-home order.
//
//	go run ./examples/quickstart
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
	// A small population is enough for the national series; everything
	// is deterministic in the seed.
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = 3000
	cfg.SkipKPI = true // mobility only for the quickstart

	fmt.Println("simulating a UK MNO, 1 Feb – 10 May 2020 ...")
	r, err := experiments.RunStreamingOn(context.Background(), experiments.NewDataset(cfg), stream.Config{})
	if err != nil {
		log.Fatal(err)
	}

	gyr := r.Mobility.NationalSeries(core.MetricGyration)
	ent := r.Mobility.NationalSeries(core.MetricEntropy)
	gw := core.DeltaSeries(gyr, stats.Mean(gyr.Values[:7])).WeeklyMeans()
	ew := core.DeltaSeries(ent, stats.Mean(ent.Values[:7])).WeeklyMeans()

	fmt.Println("\nnational mobility, Δ% vs week 9 (weekly means):")
	fmt.Printf("  %-10s", "week")
	for _, w := range timegrid.Weeks() {
		fmt.Printf(" %6d", int(w))
	}
	fmt.Println()
	printRow := func(name string, s stats.Series) {
		fmt.Printf("  %-10s", name)
		for _, v := range s.Values {
			fmt.Printf(" %6.1f", v)
		}
		fmt.Printf("   %s\n", report.Sparkline(s.Values))
	}
	printRow("gyration", gw)
	printRow("entropy", ew)

	trough, _ := gw.Min()
	fmt.Printf("\npaper: ≈ −50%% gyration after the stay-at-home order (week 13)\n")
	fmt.Printf("ours : %.0f%% at the trough — people moved far less, and closer to home\n", trough)
	fmt.Printf("homes detected for %d of %d users over February nights (§2.3 pipeline)\n",
		len(r.Homes), len(r.Dataset.Pop.Native()))
}
