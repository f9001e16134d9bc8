package feeds

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/feeds/colfmt"
	"repro/internal/mobsim"
	"repro/internal/signaling"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// dayCopy is a deep copy of one replay batch (Release recycles the
// originals, so comparisons need owned snapshots).
type dayCopy struct {
	Day    timegrid.SimDay
	Traces []mobsim.DayTrace
	Cells  []traffic.CellDay
	Events []signaling.Event
}

// snapshotDir replays a feed directory and deep-copies every batch.
func snapshotDir(t *testing.T, dir string, opt Options) []dayCopy {
	t.Helper()
	src, err := OpenDirOpts(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var days []dayCopy
	for {
		b, err := src.Next()
		if err == io.EOF {
			return days
		}
		if err != nil {
			t.Fatal(err)
		}
		d := dayCopy{Day: b.Day}
		for _, tr := range b.Traces {
			d.Traces = append(d.Traces, mobsim.DayTrace{
				User:   tr.User,
				Visits: append([]mobsim.Visit(nil), tr.Visits...),
			})
		}
		d.Cells = append(d.Cells, b.Cells...)
		d.Events = append(d.Events, b.Events...)
		days = append(days, d)
		b.Release()
	}
}

func TestMetaPartitionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Meta{
		Users: 8000, Seed: 42, Scenario: "early-lockdown",
		Format: FormatCol, FormatVersion: colfmt.Version,
		Part: 1, Parts: 4, UserLo: 2000, UserHi: 3999,
	}
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

func TestMetaReadsPreFormatSidecar(t *testing.T) {
	// Sidecars written before the format and partition columns existed
	// (three columns) must read back with those fields zero.
	dir := t.TempDir()
	legacy := "users,seed,scenario\n600,9,base\n"
	if err := os.WriteFile(filepath.Join(dir, MetaFeedName), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got != (Meta{Users: 600, Seed: 9, Scenario: "base"}) {
		t.Fatalf("pre-format meta: got %+v", got)
	}
}

func TestConvertDirRoundTrip(t *testing.T) {
	csvDir := t.TempDir()
	writeFeedDir(t, csvDir)
	srcMeta := Meta{Users: 600, Seed: 7, Scenario: "base"}
	if err := WriteMeta(csvDir, srcMeta); err != nil {
		t.Fatal(err)
	}

	// CSV → columnar: replay of the converted directory (auto-detected
	// by magic bytes) must match the original record for record.
	colDir := t.TempDir()
	if err := ConvertDir(csvDir, colDir, FormatCol, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{TraceColFeedName, KPIColFeedName, EventFeedName} {
		if _, err := os.Stat(filepath.Join(colDir, name)); err != nil {
			t.Fatalf("converted dir missing %s: %v", name, err)
		}
	}
	want := snapshotDir(t, csvDir, Options{})
	got := snapshotDir(t, colDir, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar replay diverges from CSV replay:\n got %+v\nwant %+v", got, want)
	}
	m, ok, err := ReadMeta(colDir)
	if err != nil || !ok {
		t.Fatalf("converted meta: ok=%v err=%v", ok, err)
	}
	if m.Format != FormatCol || m.FormatVersion != colfmt.Version {
		t.Fatalf("converted meta format: %+v", m)
	}
	if m.Users != srcMeta.Users || m.Seed != srcMeta.Seed || m.Scenario != srcMeta.Scenario {
		t.Fatalf("converted meta lost provenance: %+v", m)
	}

	// Columnar → CSV: the round trip must be lossless byte for byte.
	backDir := t.TempDir()
	if err := ConvertDir(colDir, backDir, FormatCSV, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{TraceFeedName, KPIFeedName, EventFeedName} {
		a, err := os.ReadFile(filepath.Join(csvDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(backDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: CSV → col → CSV not byte-identical (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// TestDirWriterCloseReportsFlushError: a write error that surfaces only
// when buffered records reach the file — here ENOSPC from /dev/full —
// must fail Close, not leave a silently truncated feed behind.
func TestDirWriterCloseReportsFlushError(t *testing.T) {
	dir := t.TempDir()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("platform has no /dev/full")
	}
	if err := os.Symlink("/dev/full", filepath.Join(dir, TraceFeedName)); err != nil {
		t.Skipf("symlink: %v", err)
	}
	w, err := CreateDir(dir, FormatCSV, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := []mobsim.DayTrace{{User: 1, Visits: []mobsim.Visit{mobsim.MakeVisit(3, 2, 600, true)}}}
	if err := w.WriteTraces(0, tr); err != nil {
		t.Fatalf("buffered write failed early: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported no error for a feed that could not be written")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConvertDirUnknownFormat(t *testing.T) {
	if err := ConvertDir(t.TempDir(), t.TempDir(), "parquet", Options{}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestPartitionDir(t *testing.T) {
	in := t.TempDir()
	writeFeedDir(t, in)
	if err := WriteMeta(in, Meta{Users: 600, Seed: 7}); err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	metas, err := PartitionDir(in, out, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 {
		t.Fatalf("want 2 shard metas, got %d", len(metas))
	}
	// Ranges must be contiguous, disjoint and cover the observed users
	// (1 and 7 in the fixture).
	if metas[0].UserLo != 1 || metas[1].UserHi != 7 {
		t.Fatalf("shard ranges do not cover users: %+v", metas)
	}
	for s, m := range metas {
		if m.Part != s || m.Parts != 2 {
			t.Fatalf("shard %d meta: %+v", s, m)
		}
		if m.Users != 600 || m.Seed != 7 {
			t.Fatalf("shard %d meta lost provenance: %+v", s, m)
		}
		if s > 0 && m.UserLo != metas[s-1].UserHi+1 {
			t.Fatalf("shard ranges not contiguous: %+v", metas)
		}
		onDisk, ok, err := ReadMeta(filepath.Join(out, ShardDirName(s)))
		if err != nil || !ok {
			t.Fatalf("shard %d sidecar: ok=%v err=%v", s, ok, err)
		}
		if onDisk != m {
			t.Fatalf("shard %d sidecar %+v != returned meta %+v", s, onDisk, m)
		}
		// The file header carries the range at bytes 8–16.
		hdr, err := os.ReadFile(filepath.Join(out, ShardDirName(s), TraceColFeedName))
		if err != nil {
			t.Fatal(err)
		}
		if len(hdr) < 16 {
			t.Fatalf("shard %d traces.col is %d bytes, shorter than its header", s, len(hdr))
		}
		if lo, hi := binary.LittleEndian.Uint32(hdr[8:12]), binary.LittleEndian.Uint32(hdr[12:16]); lo != m.UserLo || hi != m.UserHi {
			t.Fatalf("shard %d traces.col header range [%d,%d], meta says [%d,%d]", s, lo, hi, m.UserLo, m.UserHi)
		}
	}

	// Replaying the shards together must reconstruct the input exactly:
	// same day sequence in every shard, and per day the shard-ordered
	// concatenation of traces, the union of cells and the union of
	// events equal the original batch.
	want := snapshotDir(t, in, Options{})
	shards := make([][]dayCopy, 2)
	for s := range shards {
		shards[s] = snapshotDir(t, filepath.Join(out, ShardDirName(s)), Options{})
		if len(shards[s]) != len(want) {
			t.Fatalf("shard %d replays %d days, want %d", s, len(shards[s]), len(want))
		}
	}
	for d, w := range want {
		var merged dayCopy
		merged.Day = w.Day
		for s := range shards {
			got := shards[s][d]
			if got.Day != w.Day {
				t.Fatalf("shard %d day %d: got day %d, want %d", s, d, got.Day, w.Day)
			}
			for _, tr := range got.Traces {
				if uint32(tr.User) < metas[s].UserLo || uint32(tr.User) > metas[s].UserHi {
					t.Fatalf("shard %d holds user %d outside [%d,%d]", s, tr.User, metas[s].UserLo, metas[s].UserHi)
				}
			}
			merged.Traces = append(merged.Traces, got.Traces...)
			merged.Cells = append(merged.Cells, got.Cells...)
			merged.Events = append(merged.Events, got.Events...)
		}
		if !reflect.DeepEqual(merged.Traces, w.Traces) {
			t.Fatalf("day %d: merged traces %+v != original %+v", w.Day, merged.Traces, w.Traces)
		}
		if len(merged.Cells) != len(w.Cells) {
			t.Fatalf("day %d: merged %d cells, want %d", w.Day, len(merged.Cells), len(w.Cells))
		}
		if len(merged.Events) != len(w.Events) {
			t.Fatalf("day %d: merged %d events, want %d", w.Day, len(merged.Events), len(w.Events))
		}
	}
}

// TestPartitionDirSameFromEitherEncoding pins that the shards depend on
// a feed's records only, not on its encoding: partitioning the CSV and
// the columnar encoding of one feed writes byte-identical shard
// directories, sidecars included.
func TestPartitionDirSameFromEitherEncoding(t *testing.T) {
	csvDir, colDir := t.TempDir(), t.TempDir()
	writeFeedDir(t, csvDir)
	if err := WriteMeta(csvDir, Meta{Users: 600, Seed: 7, Format: FormatCSV}); err != nil {
		t.Fatal(err)
	}
	if err := ConvertDir(csvDir, colDir, FormatCol, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 3} { // 3: the middle shard holds no user
		fromCSV, fromCol := t.TempDir(), t.TempDir()
		if _, err := PartitionDir(csvDir, fromCSV, parts, Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := PartitionDir(colDir, fromCol, parts, Options{}); err != nil {
			t.Fatal(err)
		}
		want, got := readTree(t, fromCSV), readTree(t, fromCol)
		if len(want) != parts*4 {
			t.Fatalf("%d parts: %d shard files, want %d: %v", parts, len(want), parts*4, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d parts: shards of the columnar feed differ from those of the CSV feed", parts)
		}
	}
}

// TestPartitionDirLenientReportsOnce pins that a lenient partition
// reports each skipped row once, although both of its passes read the
// input: one bad trace row and one bad KPI row give one OnSkip call
// each, and the shards equal those of the same feed without them.
func TestPartitionDirLenientReportsOnce(t *testing.T) {
	clean, dirty := t.TempDir(), t.TempDir()
	writeFeedDir(t, clean)
	writeFeedDir(t, dirty)
	for name, row := range map[string]string{
		TraceFeedName: "1,7,3",                       // short row
		KPIFeedName:   "1,10,oops,0,0,0,0,0,0,0,0,0", // unparseable metric
	} {
		path := filepath.Join(dirty, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.IndexByte(b, '\n') + 1 // the bad row becomes line 2
		if err := os.WriteFile(path, append(append(b[:i:i], row+"\n"...), b[i:]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	skips := map[string][]int{}
	opt := Options{Lenient: true, OnSkip: func(name string, line int, _ error) {
		skips[filepath.Base(name)] = append(skips[filepath.Base(name)], line)
	}}
	want, got := t.TempDir(), t.TempDir()
	if _, err := PartitionDir(clean, want, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionDir(dirty, got, 2, opt); err != nil {
		t.Fatal(err)
	}
	if wantSkips := map[string][]int{TraceFeedName: {2}, KPIFeedName: {2}}; !reflect.DeepEqual(skips, wantSkips) {
		t.Fatalf("OnSkip lines by feed %v, want %v", skips, wantSkips)
	}
	if !reflect.DeepEqual(readTree(t, got), readTree(t, want)) {
		t.Fatal("lenient shards of the damaged feed differ from the shards of the clean feed")
	}
}

// readTree returns the contents of every file under dir by relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			files[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestPartitionDirRejectsBadParts(t *testing.T) {
	if _, err := PartitionDir(t.TempDir(), t.TempDir(), 0, Options{}); err == nil {
		t.Fatal("parts=0 accepted")
	}
}
