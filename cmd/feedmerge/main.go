// Command feedmerge folds the mergeable partials written by
// `mnostream -partial` into the single-process result and prints the
// same per-day summary table mnostream prints.
//
// Pass either one partial (a whole-directory replay) or the complete
// shard set of one partitioned run (`feedconv -partition N`, one
// partial per shard, any order). The merge validates provenance, shard
// completeness and day alignment, then reproduces the single-process
// rows exactly: mobility averages are re-folded from the per-user
// metrics in user order (bit-identical), KPI medians come from exact
// quantile-sketch merges (bit-identical), control-plane totals are
// integer sums. Partials are read strictly: a damaged file, or a
// version-1 (JSON) partial from an older build, fails with its
// path:offset. Each file is verified when it is read and read again,
// one day block at a time, while the merge folds it, so memory holds
// one day per partial; a file that changes in between fails the merge
// (partial.ErrChanged). Exit codes: 0 success, 1 runtime failure
// (including inconsistent, damaged or changed partials), 2 bad usage.
//
// Usage:
//
//	feedmerge [-out FILE] PARTIAL...
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/partial"
	"repro/internal/prof"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func main() {
	var (
		out = flag.String("out", "", "also write the merged table to FILE (same format as stdout)")
		pf  = prof.Flags()
	)
	flag.Parse()

	err := pf.Run(func() error {
		return run(flag.Args(), *out)
	})
	cli.Exit("feedmerge", err)
}

func run(paths []string, outPath string) error {
	if len(paths) == 0 {
		return cli.Usagef("no partial files given")
	}
	parts := make([]*partial.Partial, len(paths))
	for i, p := range paths {
		var err error
		if parts[i], err = partial.ReadFile(p); err != nil {
			return err
		}
	}
	res, err := partial.Merge(parts)
	if err != nil {
		return err
	}

	outs := []*os.File{os.Stdout}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		outs = append(outs, f)
	}
	for _, w := range outs {
		if err := render(w, res); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "feedmerge: merged %d partial(s), %d days\n", len(parts), len(res.Mobility))
	return nil
}

// render prints the merged per-day table in mnostream's format.
func render(w *os.File, res *partial.Result) error {
	if _, err := fmt.Fprintln(w, "date        day users  entropy gyr_km  cells dl_med_mb conn_med  events   fail_pct"); err != nil {
		return err
	}
	ki := 0
	for i, m := range res.Mobility {
		cells, dlMed, connMed := 0, 0.0, 0.0
		if ki < len(res.KPI) && res.KPI[ki].Day == m.Day {
			k := res.KPI[ki]
			cells, dlMed, connMed = k.Cells, k.Medians[traffic.DLVolume], k.Medians[traffic.ConnectedUsers]
			ki++
		}
		ev := res.Events[i]
		failPct := 0.0
		if ev.Events > 0 {
			failPct = float64(ev.Failures) / float64(ev.Events) * 100
		}
		_, err := fmt.Fprintf(w, "%s %3d %6d %7.3f %6.2f %6d %9.2f %8.3f %8d %8.3f\n",
			timegrid.DateOfSimDay(m.Day).Format("2006-01-02"), int(m.Day), m.Users,
			m.AvgEntropy, m.AvgGyration, cells, dlMed, connMed, ev.Events, failPct)
		if err != nil {
			return err
		}
	}
	return nil
}
