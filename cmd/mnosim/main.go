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
	"repro/internal/feeds/colfmt"
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
	r := experiments.RunStandard(cfg)
	fmt.Fprintf(os.Stderr, "simulation done in %v\n", time.Since(start).Round(time.Millisecond))

	if err := writeMobility(out, r); err != nil {
		return err
	}
	if err := writeKPI(out, r); err != nil {
		return err
	}
	if err := writeMatrix(out, r); err != nil {
		return err
	}
	if err := writeHomes(out, r); err != nil {
		return err
	}
	if err := writeSignaling(out, r); err != nil {
		return err
	}
	if raw {
		if err := writeRaw(out, r, scenName, format); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "datasets written to %s\n", out)
	return nil
}

// dayTraceWriter and dayKPIWriter abstract the per-format feed writers
// (feeds CSV vs colfmt columnar).
type dayTraceWriter interface {
	WriteDay(day timegrid.SimDay, traces []mobsim.DayTrace) error
	Flush() error
}

type dayKPIWriter interface {
	WriteDay(day timegrid.SimDay, cells []traffic.CellDay) error
	Flush() error
}

// writeRaw exports the raw per-visit trace feed and the per-cell KPI
// feed for the full window, plus one day of raw control-plane events, in
// the feeds package's formats — the directory layout cmd/mnostream
// replays (feeds.OpenDir), so analyses can be re-run without
// re-simulating.
func writeRaw(out string, r *experiments.Results, scenName, format string) error {
	col := format == feeds.FormatCol
	meta := feeds.Meta{Users: r.Dataset.Config.TargetUsers, Seed: r.Dataset.Config.Seed, Scenario: scenName, Format: format}
	traceName, kpiName := feeds.TraceFeedName, feeds.KPIFeedName
	if col {
		meta.FormatVersion = colfmt.Version
		traceName, kpiName = feeds.TraceColFeedName, feeds.KPIColFeedName
	}
	if err := feeds.WriteMeta(out, meta); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(out, traceName))
	if err != nil {
		return err
	}
	defer tf.Close()
	var tw dayTraceWriter = feeds.NewTraceWriter(tf)
	if col {
		tw = colfmt.NewTraceWriter(tf)
	}
	var kw dayKPIWriter
	var kf *os.File
	if r.Dataset.Engine != nil {
		kf, err = os.Create(filepath.Join(out, kpiName))
		if err != nil {
			return err
		}
		defer kf.Close()
		if col {
			kw = colfmt.NewKPIWriter(kf)
		} else {
			kw = feeds.NewKPIWriter(kf)
		}
	}
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(0); day < timegrid.SimDays; day++ {
		traces := r.Dataset.Sim.DayInto(buf, day)
		if err := tw.WriteDay(day, traces); err != nil {
			return err
		}
		if kw != nil {
			cells = r.Dataset.Engine.DayAppend(cells[:0], day, traces)
			if err := kw.WriteDay(day, cells); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if kw != nil {
		if err := kw.Flush(); err != nil {
			return err
		}
	}

	// One sample day of raw control-plane events (the full window would
	// dwarf every other feed); cmd/mnostream attaches it to that day and
	// streams the rest of the window without events.
	ef, err := os.Create(filepath.Join(out, feeds.EventFeedName))
	if err != nil {
		return err
	}
	defer ef.Close()
	ew := feeds.NewEventWriter(ef)
	gen := signaling.NewGenerator(r.Dataset.Pop, r.Dataset.Config.Seed)
	day := timegrid.LockdownStart.ToSimDay()
	gen.Day(day, r.Dataset.Sim.DayInto(buf, day), ew.Consume)
	return ew.Flush()
}

// create opens a CSV writer for a file in the output directory.
func create(out, name string) (*csv.Writer, *os.File, error) {
	f, err := os.Create(filepath.Join(out, name))
	if err != nil {
		return nil, nil, err
	}
	return csv.NewWriter(f), f, nil
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
	w, f, err := create(out, "mobility_daily.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.Write([]string{"date", "group", "metric", "value"}); err != nil {
		return err
	}
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
	w.Flush()
	return w.Error()
}

func writeKPI(out string, r *experiments.Results) error {
	w, f, err := create(out, "kpi_daily.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.Write([]string{"date", "group", "metric", "value"}); err != nil {
		return err
	}
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
	w.Flush()
	return w.Error()
}

func writeMatrix(out string, r *experiments.Results) error {
	w, f, err := create(out, "mobility_matrix.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.Write([]string{"date", "county", "residents_present"}); err != nil {
		return err
	}
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
	w.Flush()
	return w.Error()
}

func writeHomes(out string, r *experiments.Results) error {
	w, f, err := create(out, "homes.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.Write([]string{"district", "census_scaled", "inferred"}); err != nil {
		return err
	}
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
	w.Flush()
	return w.Error()
}

func writeSignaling(out string, r *experiments.Results) error {
	w, f, err := create(out, "signaling_summary.csv")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := w.Write([]string{"date", "event_type", "count"}); err != nil {
		return err
	}
	gen := signaling.NewGenerator(r.Dataset.Pop, r.Dataset.Config.Seed)
	buf := mobsim.NewDayBuffer()
	// One representative day per week keeps the export light.
	for _, wk := range timegrid.Weeks() {
		day := wk.Days()[2] // Wednesday
		agg := signaling.NewAggregator(r.Dataset.Topology)
		gen.Day(day.ToSimDay(), r.Dataset.Sim.DayInto(buf, day.ToSimDay()), agg.Consume)
		date := timegrid.DateOfStudyDay(day).Format("2006-01-02")
		for et := signaling.EventType(0); int(et) < signaling.NumEventTypes; et++ {
			if err := w.Write([]string{date, et.String(), strconv.FormatInt(agg.ByType[et], 10)}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}
