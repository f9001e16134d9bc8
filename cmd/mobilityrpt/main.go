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
	"repro/internal/popsim"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
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
	d := experiments.NewDataset(cfg)
	sel, err := selectGroup(d.Model, *region, *cluster)
	if err != nil {
		cli.Exit("mobilityrpt", err)
	}
	// Per-user daily gyration of the selection on a baseline weekday and
	// a lockdown weekday, taken from the run's own pass.
	hists := []struct {
		name string
		day  timegrid.SimDay
		h    *stats.Histogram
	}{
		{"baseline weekday", timegrid.SimDay(timegrid.StudyDayOffset + 2), stats.NewHistogram(0, 20, 10)},
		{"lockdown weekday", timegrid.SimDay(timegrid.StudyDayOffset + 37), stats.NewHistogram(0, 20, 10)},
	}
	var mg core.VisitMerger
	r := experiments.RunStandardOn(d, func(day timegrid.SimDay, traces []mobsim.DayTrace, _ []traffic.CellDay) {
		for _, hd := range hists {
			if hd.day != day {
				continue
			}
			for i := range traces {
				if sel.includes(d.Pop.User(traces[i].User)) {
					hd.h.Add(mg.DayMetrics(&traces[i], d.Topology, core.DefaultTopN).Gyration)
				}
			}
		}
	})
	gyr := sel.series(r.Mobility, core.MetricGyration)
	ent := sel.series(r.Mobility, core.MetricEntropy)

	fmt.Printf("Mobility report: %s\n", sel.label)
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

	for _, hd := range hists {
		fmt.Printf("\nper-user daily gyration, %s (%s), km:\n", hd.name,
			timegrid.DateOfSimDay(hd.day).Format("Mon 02 Jan"))
		fmt.Print(hd.h.Render(36))
	}

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

// selection is the population a report covers: one county, one
// geodemographic cluster, or the whole country.
type selection struct {
	label    string
	series   func(*core.MobilityAnalyzer, core.MobilityMetric) stats.Series
	includes func(*popsim.User) bool
}

// selectGroup resolves the -region and -cluster flags against the
// model before anything is simulated. When both are set the region
// wins. An unknown name is a usage error, after listing the valid ones.
func selectGroup(m *census.Model, region, cluster string) (selection, error) {
	switch {
	case region != "":
		c, ok := m.CountyByName(region)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown region %q; available:\n", region)
			for i := range m.Counties {
				fmt.Fprintln(os.Stderr, "  ", m.Counties[i].Name)
			}
			return selection{}, cli.Usagef("unknown region %q", region)
		}
		return selection{c.Name,
			func(a *core.MobilityAnalyzer, mt core.MobilityMetric) stats.Series { return a.CountySeries(c, mt) },
			func(u *popsim.User) bool { return u.HomeCounty == c.ID }}, nil
	case cluster != "":
		for _, cl := range census.Clusters() {
			if strings.EqualFold(cl.Name(), cluster) {
				return selection{cl.Name() + " (geodemographic cluster)",
					func(a *core.MobilityAnalyzer, mt core.MobilityMetric) stats.Series { return a.ClusterSeries(cl, mt) },
					func(u *popsim.User) bool { return u.Cluster == cl }}, nil
			}
		}
		fmt.Fprintf(os.Stderr, "unknown cluster %q; available:\n", cluster)
		for _, cl := range census.Clusters() {
			fmt.Fprintln(os.Stderr, "  ", cl.Name())
		}
		return selection{}, cli.Usagef("unknown cluster %q", cluster)
	}
	return selection{"United Kingdom (all regions)", (*core.MobilityAnalyzer).NationalSeries,
		func(*popsim.User) bool { return true }}, nil
}
