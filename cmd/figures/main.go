// Command figures regenerates the paper's tables and figures from the
// synthetic reproduction pipeline and prints the series the paper plots,
// together with PASS/FAIL shape checks against the paper's reported
// results.
//
// Usage:
//
//	figures [-fig all|table1|fig2|...|fig12|ext-bins|ext-seir] [-users N] [-seed S] [-checks]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/popsim"
	"repro/internal/report"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to regenerate (all, table1, fig2 … fig12, ext-bins, ext-seir)")
		users  = flag.Int("users", popsim.ScaleSmall, "synthetic native smartphone users")
		seed   = flag.Uint64("seed", 42, "master random seed")
		checks = flag.Bool("checks", true, "print shape checks against the paper")
		quiet  = flag.Bool("quiet", false, "suppress data tables, print checks only")
		ext    = flag.Bool("ext", false, "also run the extension experiments (per-bin mobility, percentile bands)")
		md     = flag.Bool("md", false, "emit data tables as markdown")
	)
	flag.Parse()
	// Resolve -fig before anything is simulated.
	known := *fig == "all" || slices.ContainsFunc(experiments.FigureIDs(), func(id string) bool {
		return strings.EqualFold(id, *fig)
	})
	if !known {
		cli.Exit("figures", cli.Usagef("unknown figure %q", *fig))
	}

	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = *users
	cfg.Seed = *seed

	start := time.Now()
	fmt.Fprintf(os.Stderr, "simulating %d users over 100 days (seed %d)...\n", *users, *seed)
	d := experiments.NewDataset(cfg)
	var bins *experiments.BinsAndBands
	var taps []experiments.DayTap // the extensions fold the same pass
	if *ext || strings.HasPrefix(strings.ToLower(*fig), "ext-") {
		bins = experiments.ExtBinsAndBands(d)
		taps = append(taps, bins.Tap)
	}
	results := experiments.RunStandardOn(d, taps...)
	fmt.Fprintf(os.Stderr, "simulation done in %v\n\n", time.Since(start).Round(time.Millisecond))

	all := experiments.AllFigures(results)
	if bins != nil {
		all = append(all, bins.Figure(), experiments.ExtSEIR(results))
	}
	var figures []*experiments.Figure
	if *fig == "all" {
		figures = all
	} else {
		for _, f := range all {
			if strings.EqualFold(f.ID, *fig) {
				figures = append(figures, f)
			}
		}
	}

	failed := 0
	for _, f := range figures {
		fmt.Printf("=== %s: %s ===\n", f.ID, f.Title)
		if !*quiet {
			for i := range f.Tables {
				if *md {
					report.WriteMarkdownTable(os.Stdout, &f.Tables[i])
				} else {
					report.WriteTable(os.Stdout, &f.Tables[i])
					fmt.Println()
				}
			}
			for _, n := range f.Notes {
				fmt.Println("  note:", n)
			}
		}
		if *checks {
			for _, c := range f.Checks {
				fmt.Printf("  [%s] %s: got %s, want %s\n", report.CheckMark(c.Pass), c.Name, c.Got, c.Want)
				if !c.Pass {
					failed++
				}
			}
		}
		fmt.Println()
	}
	if failed > 0 {
		cli.Exit("figures", fmt.Errorf("%d shape check(s) failed", failed))
	}
}
