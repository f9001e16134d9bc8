// Command mobilityrpt prints a compact mobility report for a region or
// geodemographic cluster over the study window: weekly gyration/entropy
// deltas with sparklines, plus the intervention milestones.
//
// Usage:
//
//	mobilityrpt [-region "Inner London"] [-cluster "Cosmopolitans"] [-users N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mobsim"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/timegrid"
)

func main() {
	var (
		region  = flag.String("region", "", "county to report on (default: national)")
		cluster = flag.String("cluster", "", "OAC cluster to report on")
		users   = flag.Int("users", 5000, "synthetic users")
		seed    = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = *users
	cfg.Seed = *seed
	cfg.SkipKPI = true // mobility only: ~3× faster
	r := experiments.RunStandard(cfg)

	gyr := r.Mobility.NationalSeries(core.MetricGyration)
	ent := r.Mobility.NationalSeries(core.MetricEntropy)
	label := "United Kingdom (all regions)"

	if *region != "" {
		c, ok := r.Dataset.Model.CountyByName(*region)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown region %q; available:\n", *region)
			for i := range r.Dataset.Model.Counties {
				fmt.Fprintln(os.Stderr, "  ", r.Dataset.Model.Counties[i].Name)
			}
			cli.Exit("mobilityrpt", cli.Usagef("unknown region %q", *region))
		}
		gyr = r.Mobility.CountySeries(c, core.MetricGyration)
		ent = r.Mobility.CountySeries(c, core.MetricEntropy)
		label = c.Name
	} else if *cluster != "" {
		var found *census.Cluster
		for _, cl := range census.Clusters() {
			if strings.EqualFold(cl.Name(), *cluster) {
				cl := cl
				found = &cl
			}
		}
		if found == nil {
			fmt.Fprintf(os.Stderr, "unknown cluster %q; available:\n", *cluster)
			for _, cl := range census.Clusters() {
				fmt.Fprintln(os.Stderr, "  ", cl.Name())
			}
			cli.Exit("mobilityrpt", cli.Usagef("unknown cluster %q", *cluster))
		}
		gyr = r.Mobility.ClusterSeries(*found, core.MetricGyration)
		ent = r.Mobility.ClusterSeries(*found, core.MetricEntropy)
		label = found.Name() + " (geodemographic cluster)"
	}

	fmt.Printf("Mobility report: %s\n", label)
	fmt.Printf("window: %s – %s (weeks 9–19 of 2020)\n\n",
		timegrid.StudyStart.Format("2 Jan"), timegrid.StudyEnd.Format("2 Jan 2006"))

	baseG := stats.Mean(gyr.Values[:7])
	baseE := stats.Mean(ent.Values[:7])
	gw := core.DeltaSeries(gyr, baseG).WeeklyMeans()
	ew := core.DeltaSeries(ent, baseE).WeeklyMeans()
	fmt.Printf("baseline (week 9): gyration %.2f km, entropy %.3f nats\n\n", baseG, baseE)

	printRow := func(name string, w stats.Series) {
		fmt.Printf("  %-22s %s ", name, report.Sparkline(w.Values))
		for i, v := range w.Values {
			fmt.Printf(" w%d:%+.0f%%", timegrid.FirstWeek+i, v)
		}
		fmt.Println()
	}
	printRow("radius of gyration", gw)
	printRow("mobility entropy", ew)

	// Distribution of per-user daily gyration: baseline vs lockdown.
	printHistograms(r, *region, *cluster)

	fmt.Println("\nmilestones:")
	for _, m := range []struct {
		day  timegrid.StudyDay
		what string
	}{
		{timegrid.PandemicDeclared, "WHO declares pandemic"},
		{timegrid.WorkFromHomeAdvice, "work-from-home advice"},
		{timegrid.VenueClosures, "schools and venues close"},
		{timegrid.LockdownStart, "national stay-at-home order"},
	} {
		fmt.Printf("  %s  %-28s gyration %+.0f%%\n",
			timegrid.DateOfStudyDay(m.day).Format("Mon 02 Jan"), m.what,
			stats.DeltaPercent(gyr.Values[m.day], baseG))
	}
}

// printHistograms renders the per-user daily gyration distribution on a
// baseline weekday versus a lockdown weekday, simulating both days into
// one reused day buffer and merging visits in one reused VisitMerger.
func printHistograms(r *experiments.Results, region, cluster string) {
	d := r.Dataset
	buf := mobsim.NewDayBuffer()
	var mg core.VisitMerger
	show := func(name string, day timegrid.SimDay) {
		h := stats.NewHistogram(0, 20, 10)
		traces := d.Sim.DayInto(buf, day)
		for i := range traces {
			u := d.Pop.User(traces[i].User)
			if region != "" && d.Model.County(u.HomeCounty).Name != region {
				continue
			}
			if cluster != "" && !strings.EqualFold(u.Cluster.Name(), cluster) {
				continue
			}
			m := mg.DayMetrics(&traces[i], d.Topology, core.DefaultTopN)
			h.Add(m.Gyration)
		}
		fmt.Printf("\nper-user daily gyration, %s (%s), km:\n", name,
			timegrid.DateOfSimDay(day).Format("Mon 02 Jan"))
		fmt.Print(h.Render(36))
	}
	show("baseline weekday", timegrid.SimDay(timegrid.StudyDayOffset+2))
	show("lockdown weekday", timegrid.SimDay(timegrid.StudyDayOffset+37))
}
