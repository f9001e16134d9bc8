// Voice surge: regenerate the Fig. 9 analysis — the conversational-voice
// (VoLTE, QCI 1) traffic spike around the lockdown, and the inter-MNO
// interconnect congestion incident it caused: downlink packet loss more
// than doubled in weeks 10-11 until the operations teams upgraded the
// interconnect capacity on 21 March.
//
//	go run ./examples/voice_surge
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
	fmt.Println("simulating the March 2020 voice surge ...")
	r, err := experiments.RunStreamingOn(context.Background(), experiments.NewDataset(cfg), stream.Config{})
	if err != nil {
		log.Fatal(err)
	}

	t := stats.Table{
		Title:    "4G voice (QCI 1), UK — weekly median Δ% vs week-9 median",
		ColNames: weekCols(),
	}
	for _, m := range traffic.VoiceMetrics() {
		t.AddRow(m.String(), core.WeeklyDeltaSeries(r.KPI.NationalSeries(m)).Values)
	}
	report.WriteTable(os.Stdout, &t)

	vol := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.VoiceVolume))
	loss := core.WeeklyDeltaSeries(r.KPI.NationalSeries(traffic.VoiceDLLoss))
	peak, pw := vol.Max()
	lossPeak, lw := loss.Max()
	fmt.Printf("\nvoice volume peak: %+.0f%% in week %d (paper: ≈+150%% — seven years of\n",
		peak, timegrid.FirstWeek+pw)
	fmt.Println("forecast voice growth absorbed in days)")
	fmt.Printf("DL packet loss peak: %+.0f%% in week %d, back below baseline after the\n",
		lossPeak, timegrid.FirstWeek+lw)
	fmt.Println("interconnect upgrade (paper: >+100% in weeks 10-11, then reverted)")

	// Show the interconnect capacity schedule driving the incident.
	eng := r.Dataset.Engine
	before := eng.InterconnectCapacity(timegrid.StudyDay(10).ToSimDay())
	after := eng.InterconnectCapacity(timegrid.StudyDay(40).ToSimDay())
	fmt.Printf("\ninterconnect voice capacity: %.0f → %.0f agent-minutes/hour on 21 March\n",
		before, after)
	fmt.Println("(the operations response that cleared the congestion)")
}

func weekCols() []string {
	out := make([]string, 0, timegrid.StudyWeeks)
	for _, w := range timegrid.Weeks() {
		out = append(out, fmt.Sprintf("w%d", int(w)))
	}
	return out
}
