package partial

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/feeds"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

const (
	fixUsers = 500
	fixSeed  = 1
	fixDays  = 7
)

var (
	fixOnce sync.Once
	fixTopo *radio.Topology
	fixPop  *popsim.Population
	fixSim  *mobsim.Simulator
	fixEng  *traffic.Engine
)

func fixture(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		m := census.BuildUK(1)
		fixTopo = radio.Build(m, radio.DefaultConfig(), 1)
		fixPop = popsim.Synthesize(m, fixTopo, popsim.Config{Seed: fixSeed, TargetUsers: fixUsers})
		fixSim = mobsim.New(fixPop, pandemic.Default(), fixSeed)
		fixEng = traffic.NewEngine(fixPop, pandemic.Default(), traffic.DefaultParams(), fixSeed)
	})
}

// writeFeedDir generates a fixDays feed directory (traces + KPI for
// every day, control-plane events for day 2) the way `mnosim -raw`
// does.
func writeFeedDir(t testing.TB, dir string) {
	t.Helper()
	fixture(t)
	if err := feeds.WriteMeta(dir, feeds.Meta{Users: fixUsers, Seed: fixSeed}); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(dir, feeds.TraceFeedName))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tw := feeds.NewTraceWriter(tf)
	kf, err := os.Create(filepath.Join(dir, feeds.KPIFeedName))
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close()
	kw := feeds.NewKPIWriter(kf)
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for day := timegrid.SimDay(0); day < fixDays; day++ {
		traces := fixSim.DayInto(buf, day)
		if err := tw.WriteDay(day, traces); err != nil {
			t.Fatal(err)
		}
		cells = fixEng.DayAppend(cells[:0], day, traces)
		if err := kw.WriteDay(day, cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := kw.Flush(); err != nil {
		t.Fatal(err)
	}

	ef, err := os.Create(filepath.Join(dir, feeds.EventFeedName))
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	ew := feeds.NewEventWriter(ef)
	gen := signaling.NewGenerator(fixPop, fixSeed)
	gen.Day(2, fixSim.DayInto(mobsim.NewDayBuffer(), 2), ew.Consume)
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
}

// replay runs the streaming engine over a feed directory with a
// Recorder attached and returns its Partial after a WriteFile/ReadFile
// round trip (so the parity checks also pin the binary format).
func replay(t testing.TB, dir string) *Partial {
	t.Helper()
	path := filepath.Join(t.TempDir(), "partial")
	if err := WriteFile(path, record(t, dir)); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// record is replay without the file round trip: the Recorder's own
// in-memory Partial.
func record(t testing.TB, dir string) *Partial {
	t.Helper()
	meta, _, err := feeds.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := feeds.OpenDirOpts(dir, feeds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	scfg := stream.Config{}.WithDefaults()
	eng := stream.NewEngine(scfg)
	rec := NewRecorder(fixTopo, core.DefaultTopN, meta)
	eng.AddTraceConsumer(rec.Traces())
	eng.AddKPIConsumer(rec.KPI())
	eng.AddEventSharder(rec.Events())
	if err := eng.Run(context.Background(), stream.Prefetch(fs, scfg.Buffer)); err != nil {
		t.Fatal(err)
	}
	return rec.Partial()
}

// TestMergeParity pins the headline guarantee: replaying partition
// shards in separate engine runs and merging the partials reproduces
// the single-process result — mobility bit-identical, KPI medians
// bit-identical (well inside the 1e-9 acceptance tolerance), event
// totals exactly equal.
func TestMergeParity(t *testing.T) {
	full := t.TempDir()
	writeFeedDir(t, full)
	single := replay(t, full)
	ref, err := Merge([]*Partial{single})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Mobility) != fixDays || len(ref.KPI) != fixDays || len(ref.Events) != fixDays {
		t.Fatalf("reference rows: %d mobility, %d kpi, %d events (want %d each)",
			len(ref.Mobility), len(ref.KPI), len(ref.Events), fixDays)
	}
	var evTotal int64
	for _, e := range ref.Events {
		evTotal += e.Events
	}
	if evTotal == 0 {
		t.Fatal("fixture produced no control-plane events; the event merge path is untested")
	}

	for _, parts := range []int{2, 4} {
		out := t.TempDir()
		metas, err := feeds.PartitionDir(full, out, parts, feeds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]*Partial, parts)
		for s := range ps {
			ps[s] = replay(t, filepath.Join(out, feeds.ShardDirName(s)))
			if !ps[s].Partitioned() || ps[s].UserLo != metas[s].UserLo {
				t.Fatalf("%d-way shard %d partial lost partition coordinates: %+v", parts, s, ps[s])
			}
		}
		got, err := Merge(ps)
		if err != nil {
			t.Fatalf("%d-way merge: %v", parts, err)
		}
		for j := range ref.Mobility {
			if got.Mobility[j] != ref.Mobility[j] {
				t.Errorf("%d-way merge: mobility day %d not bit-identical:\n got %+v\nwant %+v",
					parts, ref.Mobility[j].Day, got.Mobility[j], ref.Mobility[j])
			}
		}
		if len(got.KPI) != len(ref.KPI) {
			t.Fatalf("%d-way merge: %d KPI rows, want %d", parts, len(got.KPI), len(ref.KPI))
		}
		for j := range ref.KPI {
			if got.KPI[j] != ref.KPI[j] {
				t.Errorf("%d-way merge: KPI day %d diverges:\n got %+v\nwant %+v",
					parts, ref.KPI[j].Day, got.KPI[j], ref.KPI[j])
			}
		}
		for j := range ref.Events {
			if got.Events[j] != ref.Events[j] {
				t.Errorf("%d-way merge: events day %d: got %+v, want %+v",
					parts, ref.Events[j].Day, got.Events[j], ref.Events[j])
			}
		}
	}
}

// TestSketchMediansWithinGuarantee compares the merged sketch medians
// against exact medians computed from the raw KPI records: the HDR
// sketch promises about 10^(1/32)-1 ≈ 7.5% relative error, and the
// replayed feed must stay inside it.
func TestSketchMediansWithinGuarantee(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
	res, err := Merge([]*Partial{replay(t, dir)})
	if err != nil {
		t.Fatal(err)
	}

	maxRel := math.Pow(10, 1.0/32) - 1
	buf := mobsim.NewDayBuffer()
	var cells []traffic.CellDay
	for _, k := range res.KPI {
		traces := fixSim.DayInto(buf, k.Day)
		cells = fixEng.DayAppend(cells[:0], k.Day, traces)
		if len(cells) != k.Cells {
			t.Fatalf("day %d: merged %d cells, engine produced %d", k.Day, k.Cells, len(cells))
		}
		vals := make([]float64, len(cells))
		for m := 0; m < traffic.NumMetrics; m++ {
			for i := range cells {
				vals[i] = cells[i].Values[m]
			}
			sort.Float64s(vals)
			exact := vals[(len(vals)-1)/2] // rank ⌈n/2⌉, matching QSketch.Quantile
			got := k.Medians[m]
			if exact == 0 {
				if got != 0 {
					t.Errorf("day %d metric %d: exact median 0, sketch %g", k.Day, m, got)
				}
				continue
			}
			if rel := math.Abs(got-exact) / exact; rel > maxRel {
				t.Errorf("day %d metric %d: sketch median %g vs exact %g (rel %.4f > %.4f)",
					k.Day, m, got, exact, rel, maxRel)
			}
		}
	}
}

// TestMergeKeepsCallerOrder pins that Merge sorts a copy of its
// argument: shard partials passed in reverse stay in reverse, and merge
// as they do in order.
func TestMergeKeepsCallerOrder(t *testing.T) {
	full := t.TempDir()
	writeFeedDir(t, full)
	out := t.TempDir()
	if _, err := feeds.PartitionDir(full, out, 2, feeds.Options{}); err != nil {
		t.Fatal(err)
	}
	p0 := replay(t, filepath.Join(out, feeds.ShardDirName(0)))
	p1 := replay(t, filepath.Join(out, feeds.ShardDirName(1)))
	parts := []*Partial{p1, p0}
	got, err := Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0] != p1 || parts[1] != p0 {
		t.Fatal("Merge reordered the caller's slice")
	}
	want, err := Merge([]*Partial{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merging the parts in reverse gives another result")
	}
}

func TestMergeValidation(t *testing.T) {
	// The parts are recorded through a Recorder's spill.
	mk := func(part, parts int, lo, hi uint32, days ...Day) *Partial {
		return spilled(feeds.Meta{Users: 10, Seed: 1, Part: part, Parts: parts, UserLo: lo, UserHi: hi}, days...)
	}
	day := func(d timegrid.SimDay, users ...uint32) Day {
		return Day{Day: d, Users: users, Entropy: make([]float64, len(users)), Gyration: make([]float64, len(users))}
	}
	d0 := day(0)
	cases := []struct {
		name  string
		parts []*Partial
		want  string // error substring, when the message must name the culprit
	}{
		{"empty", nil, ""},
		{"bad version", []*Partial{{Version: Version + 1}}, ""},
		{"incomplete shard set", []*Partial{mk(0, 2, 0, 4, d0)}, ""},
		{"duplicate part", []*Partial{mk(0, 2, 0, 4, d0), mk(0, 2, 0, 4, d0)}, ""},
		{"overlapping ranges", []*Partial{mk(0, 2, 0, 5, d0), mk(1, 2, 5, 9, d0)}, ""},
		{"diverging days", []*Partial{mk(0, 2, 0, 4, d0, day(1)), mk(1, 2, 5, 9, d0, day(2))}, ""},
		{"users not ascending", []*Partial{mk(0, 0, 0, 0, day(3, 2, 5, 5))}, "part 0 day 3"},
		{"user outside part range", []*Partial{mk(0, 2, 0, 4, day(0, 4)), mk(1, 2, 5, 9, day(0, 5, 10))}, "part 1 day 0"},
		{"mixed provenance", func() []*Partial {
			a, b := mk(0, 2, 0, 4, d0), mk(1, 2, 5, 9, d0)
			b.Seed = 2
			return []*Partial{a, b}
		}(), ""},
	}
	for _, tc := range cases {
		_, err := Merge(tc.parts)
		switch {
		case err == nil:
			t.Errorf("%s: merge accepted", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	// The valid counterpart merges cleanly.
	if _, err := Merge([]*Partial{mk(0, 2, 0, 4, day(0, 0, 4)), mk(1, 2, 5, 9, day(0, 5, 9))}); err != nil {
		t.Errorf("valid shard set rejected: %v", err)
	}
}
