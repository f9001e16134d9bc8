package feeds

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// writeFeedDir persists a small three-day feed set: traces for days
// 0–2, KPI records for days 1–2 (a feed opened mid-window), events for
// day 1 only.
func writeFeedDir(t *testing.T, dir string) {
	t.Helper()
	tf, err := os.Create(filepath.Join(dir, TraceFeedName))
	if err != nil {
		t.Fatal(err)
	}
	tw := NewTraceWriter(tf)
	for day := timegrid.SimDay(0); day < 3; day++ {
		traces := []mobsim.DayTrace{
			{User: 1, Visits: []mobsim.Visit{mobsim.MakeVisit(2, 1, 600, true)}},
			{User: 7, Visits: []mobsim.Visit{mobsim.MakeVisit(3, 2, 1200, false)}},
		}
		if err := tw.WriteDay(day, traces); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	kf, err := os.Create(filepath.Join(dir, KPIFeedName))
	if err != nil {
		t.Fatal(err)
	}
	kw := NewKPIWriter(kf)
	for day := timegrid.SimDay(1); day < 3; day++ {
		cells := []traffic.CellDay{{Cell: radio.CellID(int(day) * 10)}}
		if err := kw.WriteDay(day, cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := kw.Flush(); err != nil {
		t.Fatal(err)
	}
	kf.Close()

	ef, err := os.Create(filepath.Join(dir, EventFeedName))
	if err != nil {
		t.Fatal(err)
	}
	ew := NewEventWriter(ef)
	for i := 0; i < 4; i++ {
		ew.Consume(signaling.Event{Day: 1, SecOfDay: int32(i), User: popsim.UserID(i), Type: signaling.Attach, OK: true})
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	ef.Close()
}

// encodedDir writes a CSV feed directory with write and returns it in
// the given encoding: as written, or converted to the columnar format.
func encodedDir(t *testing.T, format string, write func(t *testing.T, dir string)) string {
	t.Helper()
	dir := t.TempDir()
	write(t, dir)
	if format == FormatCSV {
		return dir
	}
	col := t.TempDir()
	if err := ConvertDir(dir, col, FormatCol, Options{}); err != nil {
		t.Fatal(err)
	}
	return col
}

// kpiDay returns the records of one KPI feed day: two to four cells,
// each with values that name its day and position.
func kpiDay(day timegrid.SimDay) []traffic.CellDay {
	cells := make([]traffic.CellDay, int(day)%3+2)
	for i := range cells {
		cells[i].Cell = radio.CellID(int(day)*10 + i)
		for m := range cells[i].Values {
			cells[i].Values[m] = float64(day) + float64(i)/10 + float64(m)/100
		}
	}
	return cells
}

// writeAlignDir persists traces for traceDays (users 1 and 7) and the
// kpiDay records of kpiDays; it writes no event feed.
func writeAlignDir(traceDays, kpiDays []timegrid.SimDay) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		tf, err := os.Create(filepath.Join(dir, TraceFeedName))
		if err != nil {
			t.Fatal(err)
		}
		defer tf.Close()
		tw := NewTraceWriter(tf)
		for _, day := range traceDays {
			traces := []mobsim.DayTrace{
				{User: 1, Visits: []mobsim.Visit{mobsim.MakeVisit(2, 1, 600, true)}},
				{User: 7, Visits: []mobsim.Visit{mobsim.MakeVisit(3, 2, 1200, false)}},
			}
			if err := tw.WriteDay(day, traces); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		kf, err := os.Create(filepath.Join(dir, KPIFeedName))
		if err != nil {
			t.Fatal(err)
		}
		defer kf.Close()
		kw := NewKPIWriter(kf)
		for _, day := range kpiDays {
			if err := kw.WriteDay(day, kpiDay(day)); err != nil {
				t.Fatal(err)
			}
		}
		if err := kw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

func days(ds ...timegrid.SimDay) []timegrid.SimDay { return ds }

// TestFeedSourceAlignsDays replays feeds whose KPI days differ from
// their trace days, in both encodings, and wants each batch to carry
// exactly its own day's records. The consumer holds each batch while it
// asks for the next, as a Prefetch window does, so stores rotate, and a
// held batch is checked again once the next day is out. A KPI day the
// source reads ahead must be parked in memory of its own, never in a
// store's record slice: a released store is handed to the next day.
func TestFeedSourceAlignsDays(t *testing.T) {
	cases := []struct {
		name               string
		traceDays, kpiDays []timegrid.SimDay
	}{
		// Day 0 precedes the first trace day: read, then dropped.
		{"stale KPI day", days(1, 2, 3, 4), days(0, 1, 2, 3, 4)},
		// Days 2 and 5 have no KPI block, so days 3 and 6 are read
		// ahead and parked; day 3 is served from the park, day 6 is
		// stale by trace day 7 (and day 4 by trace day 5).
		{"trace days without KPI", days(1, 2, 3, 5, 7), days(1, 3, 4, 6)},
		{"multi-cell days", days(0, 1, 2, 3, 4, 5, 6, 7), days(0, 1, 2, 3, 4, 5, 6, 7)},
	}
	for _, format := range []string{FormatCSV, FormatCol} {
		t.Run(format, func(t *testing.T) {
			t.Run("opened mid-window", func(t *testing.T) { alignMidWindow(t, encodedDir(t, format, writeFeedDir)) })
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					src, err := OpenDir(encodedDir(t, format, writeAlignDir(c.traceDays, c.kpiDays)))
					if err != nil {
						t.Fatal(err)
					}
					defer src.Close()
					want := func(day timegrid.SimDay) []traffic.CellDay {
						if slices.Contains(c.kpiDays, day) {
							return kpiDay(day)
						}
						return nil
					}
					var held stream.DayBatch
					for _, day := range c.traceDays {
						b, err := src.Next()
						if err != nil {
							t.Fatalf("day %d: %v", day, err)
						}
						if b.Day != day {
							t.Fatalf("want day %d, got %d", day, b.Day)
						}
						if !reflect.DeepEqual(b.Cells, want(day)) {
							t.Fatalf("day %d: cells %+v, want %+v", day, b.Cells, want(day))
						}
						if held.Owner != nil && !reflect.DeepEqual(held.Cells, want(held.Day)) {
							t.Fatalf("held day %d changed once day %d was read: cells %+v", held.Day, day, held.Cells)
						}
						if st := b.Owner.(*stream.DayStore); src.pendingKPIDay >= 0 && cap(st.Cells) > 0 && &st.Cells[:1][0] == &src.pendingCells[0] {
							t.Fatalf("day %d: parked KPI day %d aliases the batch's store", day, src.pendingKPIDay)
						}
						held.Release()
						held = b
					}
					held.Release()
					if _, err := src.Next(); err != io.EOF {
						t.Fatalf("want EOF, got %v", err)
					}
				})
			}
		})
	}
}

// alignMidWindow replays writeFeedDir's feed: KPI records start on the
// second trace day, events come on day 1 only.
func alignMidWindow(t *testing.T, dir string) {
	src, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	for day := timegrid.SimDay(0); day < 3; day++ {
		b, err := src.Next()
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if b.Day != day {
			t.Fatalf("want day %d, got %d", day, b.Day)
		}
		if len(b.Traces) != 2 || b.Traces[0].User != 1 || b.Traces[1].User != 7 {
			t.Fatalf("day %d: bad traces %+v", day, b.Traces)
		}
		switch day {
		case 0:
			if b.Cells != nil {
				t.Fatalf("day 0: unexpected cells")
			}
			if len(b.Events) != 0 {
				t.Fatalf("day 0: unexpected events")
			}
		case 1:
			if len(b.Cells) != 1 || b.Cells[0].Cell != 10 {
				t.Fatalf("day 1: bad cells %+v", b.Cells)
			}
			if len(b.Events) != 4 {
				t.Fatalf("day 1: want 4 events, got %d", len(b.Events))
			}
		case 2:
			if len(b.Cells) != 1 || b.Cells[0].Cell != 20 {
				t.Fatalf("day 2: bad cells %+v", b.Cells)
			}
			if len(b.Events) != 0 {
				t.Fatalf("day 2: unexpected events")
			}
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// holdFirstDay is a trace consumer that keeps the engine on the first
// day for a while, so a producer with a wider window would draw more.
type holdFirstDay struct{ held bool }

func (h *holdFirstDay) ConsumeDay(timegrid.SimDay, []mobsim.DayTrace) {
	if !h.held {
		h.held = true
		time.Sleep(50 * time.Millisecond)
	}
}

// storeCounter passes a source's batches through and records the
// distinct stores they come in.
type storeCounter struct {
	src    stream.Source
	stores map[stream.Recycler]bool
}

func (c *storeCounter) Next() (stream.DayBatch, error) {
	b, err := c.src.Next()
	if err == nil {
		c.stores[b.Owner] = true
	}
	return b, err
}

// TestFeedReplayWindowIsTwoStores pins a feed replay's window at the
// default Buffer of 1: through Prefetch(src, 1) and a one-worker engine
// that lingers on the first day, a 12-day columnar feed comes in
// exactly two stores — the day the engine holds and the one decoded
// ahead. (The pool's stream.pool.misses counter would say the same, but
// feeds, a leaf package, imports no obs; see scripts/obs_check.sh.)
func TestFeedReplayWindowIsTwoStores(t *testing.T) {
	var all []timegrid.SimDay
	for d := timegrid.SimDay(0); d < 12; d++ {
		all = append(all, d)
	}
	src, err := OpenDir(encodedDir(t, FormatCol, writeAlignDir(all, all)))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	c := &storeCounter{src: src, stores: map[stream.Recycler]bool{}}
	e := stream.NewEngine(stream.Config{Workers: 1})
	e.AddTraceConsumer(&holdFirstDay{})
	if err := e.Run(context.Background(), stream.Prefetch(c, 1)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.stores); got != 2 {
		t.Errorf("12 days replayed in %d stores, want 2", got)
	}
}

func TestFeedSourceTracesOnly(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
	// Remove the optional feeds: the source must still stream traces.
	os.Remove(filepath.Join(dir, KPIFeedName))
	os.Remove(filepath.Join(dir, EventFeedName))
	src, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	days := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Cells != nil || b.Events != nil {
			t.Fatalf("unexpected optional feeds: %+v", b)
		}
		days++
	}
	if days != 3 {
		t.Fatalf("want 3 days, got %d", days)
	}
}

// TestFeedSourceRefusesDoubleRelease releases one replayed batch twice
// (through a copy, as a buggy consumer would): the second release must
// be refused and counted once in the process-wide ledger, and the store
// must not reach the free list twice — the next two days get distinct
// stores.
func TestFeedSourceRefusesDoubleRelease(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
	src, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	b, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	stale := b
	ledger0 := stream.DoubleReleases()
	b.Release()
	stale.Release()
	if got := stream.DoubleReleases() - ledger0; got != 1 {
		t.Fatalf("double release bumped stream.DoubleReleases by %d, want 1", got)
	}
	b1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b1.Owner == b2.Owner {
		t.Fatal("free list corrupted: one store issued to two live batches")
	}
	if b1.Day != 1 || b2.Day != 2 || b1.Traces[0].User != 1 || b2.Traces[1].User != 7 {
		t.Fatalf("bad batches after a refused release: day %d %+v, day %d %+v", b1.Day, b1.Traces, b2.Day, b2.Traces)
	}
}

func TestOpenDirMissingTraces(t *testing.T) {
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Fatal("want error for missing trace feed")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadMeta(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	want := Meta{Users: 8000, Seed: 42, Scenario: "early-lockdown"}
	if err := WriteMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("meta: got %+v, want %+v", got, want)
	}

	// ReadMetaFor accepts the sidecar's own stack, rejects any other
	// with ErrStackMismatch, and defaults a missing sidecar.
	if got, err := ReadMetaFor(dir, 8000, 42); err != nil || got != want {
		t.Fatalf("matching stack: got %+v, %v", got, err)
	}
	for _, c := range []struct {
		users int
		seed  uint64
	}{{500, 42}, {8000, 7}} {
		if _, err := ReadMetaFor(dir, c.users, c.seed); !errors.Is(err, ErrStackMismatch) {
			t.Fatalf("-users %d -seed %d: want ErrStackMismatch, got %v", c.users, c.seed, err)
		}
	}
	if got, err := ReadMetaFor(t.TempDir(), 500, 7); err != nil || got != (Meta{Users: 500, Seed: 7}) {
		t.Fatalf("no sidecar: got %+v, %v", got, err)
	}
}

func TestMetaReadsPreScenarioSidecar(t *testing.T) {
	// Feeds written before the scenario column existed must still read,
	// with an empty Scenario.
	dir := t.TempDir()
	legacy := "users,seed\n8000,42\n"
	if err := os.WriteFile(filepath.Join(dir, MetaFeedName), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got != (Meta{Users: 8000, Seed: 42}) {
		t.Fatalf("legacy meta: got %+v", got)
	}
	// Truncated sidecars (fewer than the two mandatory columns) are
	// rejected, not panicked on.
	if err := os.WriteFile(filepath.Join(dir, MetaFeedName), []byte("users\n8000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadMeta(dir); err == nil {
		t.Fatal("truncated meta header accepted")
	}
}

// TestRewindTracesRereadsFeed pins PartitionDir's reader reuse: a
// source's trace reader, rewound, reads its feed again from the start,
// in either encoding, and a warm columnar reader does so without
// allocating.
func TestRewindTracesRereadsFeed(t *testing.T) {
	for _, format := range []string{FormatCSV, FormatCol} {
		src, err := OpenDir(encodedDir(t, format, writeFeedDir))
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		buf := mobsim.NewDayBuffer()
		read := func() (days []timegrid.SimDay, users []popsim.UserID) {
			for {
				day, err := src.traces.ReadDayInto(buf)
				if err == io.EOF {
					return days, users
				}
				if err != nil {
					t.Fatal(err)
				}
				days = append(days, day)
				for _, tr := range buf.Traces() {
					users = append(users, tr.User)
				}
			}
		}
		days, users := read()
		if len(days) != 3 {
			t.Fatalf("%s: first pass read %d days, want 3", format, len(days))
		}
		if err := src.rewindTraces(Options{}); err != nil {
			t.Fatal(err)
		}
		if d, u := read(); !slices.Equal(d, days) || !slices.Equal(u, users) {
			t.Fatalf("%s: rewound pass read days %v users %v, want %v %v", format, d, u, days, users)
		}
		if format != FormatCol {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := src.rewindTraces(Options{}); err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := src.traces.ReadDayInto(buf); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs > 0 {
			t.Errorf("rewinding and rereading a warm columnar trace feed allocates %.1f times, want 0", allocs)
		}
	}
}
