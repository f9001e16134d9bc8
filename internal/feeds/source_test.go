package feeds

import (
	"io"
	"os"
	"path/filepath"
	"testing"

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

func TestFeedSourceAlignsDays(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
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
