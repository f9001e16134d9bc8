package experiments

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// writeLiveFeeds simulates days [first, limit) of d live, hands each day
// to consume, and persists the same days as a CSV feed directory —
// traces, plus KPI records when d has a traffic engine — which it then
// converts to the columnar format. It returns the directory of each
// format.
func writeLiveFeeds(t *testing.T, d *Dataset, first, limit timegrid.SimDay, consume func(timegrid.SimDay, []mobsim.DayTrace, []traffic.CellDay)) map[string]string {
	t.Helper()
	csvDir, colDir := t.TempDir(), t.TempDir()
	w, err := feeds.CreateDir(csvDir, feeds.FormatCSV, d.Engine != nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := first; day < limit; day++ {
		traces := d.Sim.DayInto(buf, day)
		if err := w.WriteTraces(day, traces); err != nil {
			t.Fatal(err)
		}
		if d.Engine != nil {
			cells = d.Engine.DayAppend(cells[:0], day, traces)
			if err := w.WriteKPI(day, cells); err != nil {
				t.Fatal(err)
			}
		}
		consume(day, traces, cells)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := feeds.ConvertDir(csvDir, colDir, feeds.FormatCol, feeds.Options{}); err != nil {
		t.Fatal(err)
	}
	return map[string]string{feeds.FormatCSV: csvDir, feeds.FormatCol: colDir}
}

// replayDir replays a feed directory through feeds.OpenDir and a
// two-worker streaming engine carrying the consumers attach adds.
func replayDir(dir string, attach func(eng *stream.Engine)) error {
	fs, err := feeds.OpenDir(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	eng := stream.NewEngine(stream.Config{Workers: 2})
	attach(eng)
	return eng.Run(context.Background(), fs)
}

// TestReplayTracesMatchesLive pins the replay path `analyze` runs: a
// persisted trace feed, CSV or columnar, replayed into the sharded home
// detector and mobility stages reproduces the live serial analyzers
// bit for bit — February home detection and the study-window series.
func TestReplayTracesMatchesLive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetUsers = 700
	cfg.SkipKPI = true
	d := NewDataset(cfg)

	liveHomes := core.NewHomeDetector(d.Topology)
	live := core.NewMobilityAnalyzer(d.Pop, cfg.TopN)
	dirs := writeLiveFeeds(t, d, 0, timegrid.SimDay(timegrid.StudyDayOffset+10),
		func(day timegrid.SimDay, traces []mobsim.DayTrace, _ []traffic.CellDay) {
			liveHomes.ConsumeDay(day, traces)
			live.ConsumeDay(day, traces)
		})
	wantHomes := liveHomes.Detect()

	for format, dir := range dirs {
		t.Run(format, func(t *testing.T) {
			replayed := core.NewMobilityAnalyzer(d.Pop, cfg.TopN)
			var homes *stream.Homes
			err := replayDir(dir, func(eng *stream.Engine) {
				homes = stream.NewHomes(d.Topology, eng.Config().Shards)
				eng.AddTraceSharder(homes)
				eng.AddTraceSharder(stream.NewMobility(replayed, eng.Config().Shards))
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := homes.Detect(); len(wantHomes) == 0 || !maps.Equal(got, wantHomes) {
				t.Fatalf("replayed %d homes, live %d: detections differ", len(got), len(wantHomes))
			}
			for _, m := range []core.MobilityMetric{core.MetricGyration, core.MetricEntropy} {
				assertSeriesEqual(t, "replayed national "+m.String(), live.NationalSeries(m), replayed.NationalSeries(m))
			}
		})
	}
}

// TestReplayKPIMatchesLive is the KPI counterpart: a persisted KPI
// feed replayed into the analyzer as a merge-stage consumer reproduces
// the live national series across metrics.
func TestReplayKPIMatchesLive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetUsers = 700
	d := NewDataset(cfg)

	live := core.NewKPIAnalyzer(d.Topology)
	start := timegrid.SimDay(timegrid.StudyDayOffset)
	dirs := writeLiveFeeds(t, d, start, start+7,
		func(day timegrid.SimDay, _ []mobsim.DayTrace, cells []traffic.CellDay) {
			live.ConsumeDay(day, cells)
		})

	for format, dir := range dirs {
		t.Run(format, func(t *testing.T) {
			replayed := core.NewKPIAnalyzer(d.Topology)
			if err := replayDir(dir, func(eng *stream.Engine) { eng.AddKPIConsumer(replayed) }); err != nil {
				t.Fatal(err)
			}
			for _, m := range []traffic.Metric{0, 4, 9} {
				assertSeriesEqual(t, "replayed kpi national "+m.String(), live.NationalSeries(m), replayed.NationalSeries(m))
			}
		})
	}
}

// TestReplayRejectsBadDays pins that a strict replay fails on a trace
// row dated outside the simulated window, naming its file and line,
// rather than replaying it or reading the feed as empty.
func TestReplayRejectsBadDays(t *testing.T) {
	for _, day := range []string{"500", "-3"} {
		dir := t.TempDir()
		feed := "day,user,tower,bin,seconds,at_residence\n" + day + ",1,0,0,100,1\n"
		if err := os.WriteFile(filepath.Join(dir, feeds.TraceFeedName), []byte(feed), 0o644); err != nil {
			t.Fatal(err)
		}
		err := replayDir(dir, func(*stream.Engine) {})
		if err == nil || !strings.Contains(err.Error(), feeds.TraceFeedName+":2") {
			t.Errorf("day %s: got %v, want an error at %s:2", day, err, feeds.TraceFeedName)
		}
	}
}
