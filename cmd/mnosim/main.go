// Command mnosim runs the full synthetic-MNO simulation and exports the
// datasets the paper's pipeline consumes, as CSV files:
//
//	mobility_daily.csv   per-day national/regional/cluster mobility metrics
//	kpi_daily.csv        per-day per-group KPI medians (all metrics)
//	mobility_matrix.csv  Inner-London resident presence per county per day
//	homes.csv            per-district inferred vs census population
//	signaling_summary.csv per-day control-plane event counts by type
//
// With -raw it additionally persists the replayable feed directory that
// cmd/mnostream consumes: traces (full window), KPI records (full
// window) and events.csv (one sample day). -format picks the trace/KPI
// encoding: csv (traces.csv/kpi.csv, the default) or col — the columnar
// binary day-block format (traces.col/kpi.col, internal/feeds/colfmt),
// which is several times faster to replay and a fraction of the size.
// cmd/feedconv converts between the two after the fact.
//
// All of it comes from one simulation pass: the feeds, the event sample
// day and the weekly signaling counts are written from day taps on
// experiments.RunStandardOn, so no day is simulated twice.
//
// The behavioural scenario defaults to the calibrated COVID timeline;
// -scenario selects a registry built-in (see `mnosweep -list`) or a
// JSON spec file in the SCENARIOS.md schema.
//
// Usage:
//
//	mnosim -out ./data [-users N] [-seed S] [-scenario NAME|FILE.json]
//	       [-raw] [-format csv|col] [-cpuprofile F] [-memprofile F]
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/signaling"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func main() {
	var (
		out    = flag.String("out", "data", "output directory")
		users  = flag.Int("users", popsim.ScaleSmall, "synthetic native smartphone users")
		seed   = flag.Uint64("seed", 42, "master random seed")
		scen   = flag.String("scenario", "", "behavioural scenario: registry name or JSON spec file (empty: the calibrated default)")
		raw    = flag.Bool("raw", false, "also export raw per-visit traces and a sample signalling feed (large)")
		format = flag.String("format", feeds.FormatCSV, "raw feed encoding: csv or col (columnar binary, faster to replay)")
		pf     = prof.Flags()
	)
	flag.Parse()

	err := pf.Run(func() error {
		return run(*out, *users, *seed, *scen, *raw, *format)
	})
	cli.Exit("mnosim", err)
}

func run(out string, users int, seed uint64, scenName string, raw bool, format string) error {
	if format != feeds.FormatCSV && format != feeds.FormatCol {
		return cli.Usagef("unknown -format %q (want %q or %q)", format, feeds.FormatCSV, feeds.FormatCol)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	start := time.Now()
	cfg := experiments.DefaultConfig()
	cfg.TargetUsers = users
	cfg.Seed = seed
	if scenName != "" {
		s, err := scenario.Load(scenName)
		if err != nil {
			return cli.Usagef("%w", err)
		}
		cfg.Scenario = s
	}
	d := experiments.NewDataset(cfg)
	gen := signaling.NewGenerator(d.Pop, d.Config.Seed)
	// One representative day per week (its Wednesday) keeps the
	// signaling export light.
	wednesday := make(map[timegrid.SimDay]bool)
	for _, wk := range timegrid.Weeks() {
		wednesday[wk.Days()[2].ToSimDay()] = true
	}
	var sigRows [][]string
	taps := []experiments.DayTap{func(day timegrid.SimDay, traces []mobsim.DayTrace, _ []traffic.CellDay) {
		if !wednesday[day] {
			return
		}
		agg := signaling.NewAggregator(d.Topology)
		gen.Day(day, traces, agg.Consume)
		date := timegrid.DateOfSimDay(day).Format("2006-01-02")
		for et := signaling.EventType(0); int(et) < signaling.NumEventTypes; et++ {
			sigRows = append(sigRows, []string{date, et.String(), strconv.FormatInt(agg.ByType[et], 10)})
		}
	}}
	var rf *rawFeeds
	if raw {
		w, err := feeds.CreateDir(out, format, true)
		if err != nil {
			return err
		}
		defer w.Close() // error paths; the success path checks Close below
		ev, err := w.Events()
		if err == nil {
			err = w.WriteMeta(feeds.Meta{Users: d.Config.TargetUsers, Seed: d.Config.Seed, Scenario: scenName})
		}
		if err != nil {
			return err
		}
		rf = &rawFeeds{w: w, events: ev, engine: d.Engine, gen: gen}
		taps = append(taps, rf.tap)
	}
	r := experiments.RunStandardOn(d, taps...)
	fmt.Fprintf(os.Stderr, "simulation done in %v\n", time.Since(start).Round(time.Millisecond))
	if rf != nil {
		if err := errors.Join(rf.err, rf.w.Close()); err != nil {
			return err
		}
	}

	for _, write := range []func(string, *experiments.Results) error{writeMobility, writeKPI, writeMatrix, writeHomes} {
		if err := write(out, r); err != nil {
			return err
		}
	}
	err := writeCSV(out, "signaling_summary.csv", []string{"date", "event_type", "count"}, func(w *csv.Writer) error {
		return w.WriteAll(sigRows)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "datasets written to %s\n", out)
	return nil
}

// rawFeeds writes the replayable feed directory that cmd/mnostream
// replays (feeds.OpenDir) from a day tap: the trace and KPI feeds for
// the full window, plus one day of raw control-plane events.
type rawFeeds struct {
	w      *feeds.DirWriter
	events *feeds.EventWriter
	engine *traffic.Engine
	gen    *signaling.Generator
	cells  []traffic.CellDay // KPI scratch for days the run computes none
	err    error             // first write error; later days are skipped
}

// tap writes one day. Before the study window the run computes no KPI
// records, so the tap runs the dataset's engine, which the run has not
// used yet; DayAppend is a pure function of (day, traces).
func (f *rawFeeds) tap(day timegrid.SimDay, traces []mobsim.DayTrace, cells []traffic.CellDay) {
	if f.err != nil {
		return
	}
	if cells == nil {
		f.cells = f.engine.DayAppend(f.cells[:0], day, traces)
		cells = f.cells
	}
	if f.err = f.w.WriteTraces(day, traces); f.err == nil {
		f.err = f.w.WriteKPI(day, cells)
	}
	// One sample day of raw control-plane events (the full window would
	// dwarf every other feed); cmd/mnostream attaches it to that day and
	// streams the rest of the window without events.
	if day == timegrid.LockdownStart.ToSimDay() {
		f.gen.Day(day, traces, f.events.Consume)
	}
}

// writeCSV writes one aggregate CSV file: the header, then whatever
// fill writes. It checks the flush, then the close.
func writeCSV(out, name string, header []string, fill func(*csv.Writer) error) error {
	f, err := os.Create(filepath.Join(out, name))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	err = w.Write(header)
	if err == nil {
		err = fill(w)
	}
	if err == nil {
		w.Flush()
		err = w.Error()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// seriesRows writes one row per day of a named series.
func seriesRows(w *csv.Writer, group, metric string, s stats.Series) error {
	for d := 0; d < s.Len(); d++ {
		date := timegrid.DateOfStudyDay(timegrid.StudyDay(d)).Format("2006-01-02")
		if err := w.Write([]string{date, group, metric, fmtF(s.Values[d])}); err != nil {
			return err
		}
	}
	return nil
}

func writeMobility(out string, r *experiments.Results) error {
	return writeCSV(out, "mobility_daily.csv", []string{"date", "group", "metric", "value"}, func(w *csv.Writer) error {
		for _, m := range []core.MobilityMetric{core.MetricGyration, core.MetricEntropy} {
			if err := seriesRows(w, "UK", m.String(), r.Mobility.NationalSeries(m)); err != nil {
				return err
			}
			for _, c := range r.Dataset.Model.FocusRegions() {
				if err := seriesRows(w, c.Name, m.String(), r.Mobility.CountySeries(c, m)); err != nil {
					return err
				}
			}
			for _, cl := range census.Clusters() {
				if err := seriesRows(w, cl.Name(), m.String(), r.Mobility.ClusterSeries(cl, m)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func writeKPI(out string, r *experiments.Results) error {
	return writeCSV(out, "kpi_daily.csv", []string{"date", "group", "metric", "value"}, func(w *csv.Writer) error {
		for _, m := range traffic.Metrics() {
			if err := seriesRows(w, "UK", m.String(), r.KPI.NationalSeries(m)); err != nil {
				return err
			}
			for _, c := range r.Dataset.Model.FocusRegions() {
				if err := seriesRows(w, c.Name, m.String(), r.KPI.CountySeries(c, m)); err != nil {
					return err
				}
			}
			for _, cl := range census.Clusters() {
				if err := seriesRows(w, "cluster:"+cl.Name(), m.String(), r.KPI.ClusterSeries(cl, m)); err != nil {
					return err
				}
			}
			for _, did := range r.Dataset.Model.InnerLondon().Districts {
				d := r.Dataset.Model.District(did)
				if err := seriesRows(w, "london:"+d.Code, m.String(), r.KPI.DistrictSeries(d, m)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func writeMatrix(out string, r *experiments.Results) error {
	return writeCSV(out, "mobility_matrix.csv", []string{"date", "county", "residents_present"}, func(w *csv.Writer) error {
		counties := append([]*census.County{r.Dataset.Model.InnerLondon()}, r.Matrix.TopDestinations(10)...)
		for _, c := range counties {
			s := r.Matrix.PresenceSeries(c)
			for d := 0; d < s.Len(); d++ {
				date := timegrid.DateOfStudyDay(timegrid.StudyDay(d)).Format("2006-01-02")
				if err := w.Write([]string{date, c.Name, fmtF(s.Values[d])}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func writeHomes(out string, r *experiments.Results) error {
	return writeCSV(out, "homes.csv", []string{"district", "census_scaled", "inferred"}, func(w *csv.Writer) error {
		scale := float64(len(r.Dataset.Pop.Native())) / float64(r.Dataset.Model.TotalPopulation())
		v, err := core.ValidateAgainstCensus(r.Homes, r.Dataset.Model, scale)
		if err != nil {
			return err
		}
		for i, label := range v.Labels {
			if err := w.Write([]string{label, fmtF(v.Census[i]), fmtF(v.Inferred[i])}); err != nil {
				return err
			}
		}
		return nil
	})
}
