package partial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/feeds"
	"repro/internal/stream"
)

// realPartial replays the 500-user fixture feed and returns the bytes of
// its partial file.
func realPartial(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	writeFeedDir(t, dir)
	path := filepath.Join(t.TempDir(), "partial")
	if err := WriteFile(path, replay(t, dir)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDays returns a Recorder's partial cut to its first n days.
func firstDays(p *Partial, n int) *Partial {
	q := *p
	q.blocks, q.days = p.blocks[:n], n
	return &q
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// blockStarts returns the byte offset of every block in a well-formed
// partial file: the header block first, then the day blocks.
func blockStarts(b []byte) []int {
	var starts []int
	for off := len(magic) + 1; off < len(b); off += 8 + int(binary.LittleEndian.Uint32(b[off:])) {
		starts = append(starts, off)
	}
	return starts
}

// reframe rewrites the block at off with payload grown by extra and a
// recomputed length and checksum, so only the payload decoding can
// object.
func reframe(b []byte, off int, extra []byte) []byte {
	n := int(binary.LittleEndian.Uint32(b[off:]))
	blk := append(append([]byte(nil), b[off:off+4+n]...), extra...)
	binary.LittleEndian.PutUint32(blk, uint32(n+len(extra)))
	blk = binary.LittleEndian.AppendUint32(blk, crc32.ChecksumIEEE(blk))
	out := append(append([]byte(nil), b[:off]...), blk...)
	return append(out, b[off+8+n:]...)
}

func TestReadFileRoundTrip(t *testing.T) {
	b := realPartial(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "partial")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every day decodes to values that re-encode to the same block, so
	// every float64 bit pattern and sketch count survived the trip.
	days, err := p.openDays()
	if err != nil {
		t.Fatal(err)
	}
	defer days.close()
	for i := range p.days {
		blk, err := days.next(true)
		if err != nil {
			t.Fatal(err)
		}
		if again := endBlock(appendDay(beginBlock(nil), &days.day)); !bytes.Equal(again, blk) {
			t.Fatalf("day block %d re-encodes differently", i)
		}
	}
	if err := days.finish(); err != nil {
		t.Fatal(err)
	}
	// Writing what was read reproduces the file byte for byte.
	again := filepath.Join(dir, "again")
	if err := WriteFile(again, p); err != nil {
		t.Fatal(err)
	}
	if b2, err := os.ReadFile(again); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("re-written partial differs from the original (err %v)", err)
	}
}

// TestReadFileKeepsSketchWindows pins that the days read back from a
// file carry the recorder's own windowed sketch states: the same Lo and
// the same bins, from the first to the last occupied one, never the
// dense bin array. Both sides are decoded from their day blocks.
func TestReadFileKeepsSketchWindows(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
	want := record(t, dir)
	path := filepath.Join(t.TempDir(), "partial")
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := want.openDays()
	if err != nil {
		t.Fatal(err)
	}
	gr, err := got.openDays()
	if err != nil {
		t.Fatal(err)
	}
	defer gr.close()
	windows := 0
	for range want.days {
		if _, err := wr.next(true); err != nil {
			t.Fatal(err)
		}
		if _, err := gr.next(true); err != nil {
			t.Fatal(err)
		}
		w, g := wr.day.Sketches, gr.day.Sketches
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("day %d: read sketch states differ from the recorded ones", wr.day.Day)
		}
		for _, st := range g {
			if n := len(st.Bins); n > 0 {
				if st.Bins[0] == 0 || st.Bins[n-1] == 0 || n == stream.QSketchBins {
					t.Fatalf("day %d: state window [%d,%d) is not the occupied bins", wr.day.Day, st.Lo, st.Lo+n)
				}
				windows++
			}
		}
	}
	if windows == 0 {
		t.Fatal("the fixture partial holds no occupied sketch")
	}
}

func TestReadFileRejectsDamage(t *testing.T) {
	good := realPartial(t)
	starts := blockStarts(good)
	if len(starts) != fixDays+1 {
		t.Fatalf("fixture partial has %d blocks, want header + %d days", len(starts), fixDays)
	}
	day := starts[2] // the second day block
	flipped := append([]byte(nil), good...)
	flipped[day+20] ^= 0x40
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[day:], 0xFFFFFFF0)
	badVersion := append([]byte(nil), good...)
	badVersion[len(magic)] = Version + 1

	type tc struct {
		name string
		data []byte
		want error
		off  int
		msg  string
	}
	cases := []tc{
		{"empty file", nil, ErrTruncated, 0, ""},
		{"bad magic", append([]byte("MNOQ"), good[4:]...), ErrBadMagic, 0, ""},
		{"future version", badVersion, ErrVersion, 0, ""},
		{"version-1 JSON", []byte(`{"version":1,"pop_users":500,"seed":1,"days":[]}` + "\n"), ErrVersion, 0, "version 1 (JSON)"},
		{"flipped payload byte", flipped, ErrChecksum, day, ""},
		{"huge block length", huge, ErrTruncated, day, ""},
		{"trailing bytes in a day block", reframe(good, day, []byte{0}), ErrCorrupt, day, "trailing bytes"},
		{"trailing bytes in the header", reframe(good, starts[0], []byte{7}), ErrCorrupt, starts[0], "trailing bytes"},
		{"data after the last block", append(append([]byte(nil), good...), 0), ErrCorrupt, len(good), ""},
	}
	for i, s := range starts {
		cases = append(cases,
			tc{fmt.Sprintf("cut at block %d", i), good[:s], ErrTruncated, s, ""},
			tc{fmt.Sprintf("cut inside block %d", i), good[:s+6], ErrTruncated, s, ""})
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(path)
		var be *BlockError
		switch {
		case !errors.Is(err, c.want):
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		case !errors.As(err, &be) || be.Path != path || be.Offset != int64(c.off):
			t.Errorf("%s: error %v is not a *BlockError at %s:%d", c.name, err, path, c.off)
		case !strings.Contains(err.Error(), fmt.Sprintf("%s:%d", path, c.off)) || !strings.Contains(err.Error(), c.msg):
			t.Errorf("%s: error %q lacks path:offset or %q", c.name, err, c.msg)
		}
	}

	// A length field claiming 4 GiB fails after bounded allocation.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode(bytes.NewReader(huge), "huge")
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("decoding a 4 GiB length field allocated %d bytes", got)
	}
}

// FuzzReadFile feeds arbitrary bytes to the partial reader: it must never
// panic, every failure must be a *BlockError inside the input, and a
// corrupt length field must not allocate beyond what the input's bytes
// can justify (a sketch of a few bytes legitimately expands to its full
// bin array, hence the generous per-byte factor).
func FuzzReadFile(f *testing.F) {
	// The recorder's first day block of a real 500-user partial keeps
	// the seed near 10 KB; the fuzzer crawls on the full 70 KB file.
	dir := f.TempDir()
	writeFeedDir(f, dir)
	path := filepath.Join(f.TempDir(), "seed")
	if err := WriteFile(path, firstDays(record(f, dir), 1)); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(magic + "\x02"))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(bytes.NewReader(data), "fuzz")
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2048*len(data)+8<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err == nil {
			return
		}
		var be *BlockError
		if !errors.As(err, &be) {
			t.Fatalf("error %v (%T) is not a *BlockError", err, err)
		}
		if be.Offset < 0 || be.Offset > int64(len(data)) {
			t.Fatalf("error offset %d outside the %d-byte input", be.Offset, len(data))
		}
	})
}

// TestMergeDetectsChangedFile pins that Merge reads a file's day blocks
// again and holds them to what ReadFile verified: damage that appears
// between the two calls fails the merge as it would have failed the
// read, and a rewrite that every block check passes fails with
// ErrChanged. No case returns a result.
func TestMergeDetectsChangedFile(t *testing.T) {
	good := realPartial(t)
	starts := blockStarts(good)
	day := starts[2] // the second day block
	flipped := append([]byte(nil), good...)
	flipped[day+20] ^= 0x40
	// Flip a bit of the day's last payload byte (the failure count's
	// last varint byte) and recompute the block's checksum: the block
	// keeps its length and decodes, but the file is no longer the same.
	rewritten := append([]byte(nil), good...)
	rewritten[starts[3]-5] ^= 0x02
	rewritten = reframe(rewritten, day, nil)

	cases := []struct {
		name string
		data []byte
		want error
		off  int
	}{
		{"flipped byte in a day block", flipped, ErrChecksum, day},
		{"cut inside a day block", good[:starts[3]+6], ErrTruncated, starts[3]},
		{"same-length rewrite", rewritten, ErrChanged, 0},
	}
	dir := t.TempDir()
	for _, c := range cases {
		if bytes.Equal(c.data, good) {
			t.Fatalf("%s: the changed file equals the original", c.name)
		}
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-"))
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Merge([]*Partial{p})
		var be *BlockError
		switch {
		case res != nil:
			t.Errorf("%s: merge returned a result", c.name)
		case !errors.Is(err, c.want):
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		case !errors.As(err, &be) || be.Path != path || be.Offset != int64(c.off):
			t.Errorf("%s: error %v is not a *BlockError at %s:%d", c.name, err, path, c.off)
		}
	}
}

// TestReadFileAllocatesOneDay pins that ReadFile keeps no days: reading
// the 7-day fixture partial allocates what reading a one-day cut of it
// does, plus a small constant, because every day decodes into the same
// scratch.
func TestReadFileAllocatesOneDay(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
	p := record(t, dir)
	full, cut := filepath.Join(dir, "full"), filepath.Join(dir, "cut")
	if err := WriteFile(full, p); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(cut, firstDays(p, 1)); err != nil {
		t.Fatal(err)
	}
	read := func(path string) uint64 {
		return allocated(func() {
			if _, err := ReadFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, oneDay := read(full), read(cut)
	t.Logf("ReadFile allocated %d bytes for %d days, %d for one", got, p.days, oneDay)
	if got > oneDay+1<<10 {
		t.Errorf("ReadFile of %d days allocated %d bytes, of one day %d", p.days, got, oneDay)
	}
}

// TestMergeAllocatesOneDayPerPart pins that Merge holds one decoded day
// per part: merging two 7-day shard partials read back from files
// allocates what merging their one-day cuts does, where each part holds
// one day's columns, plus the extra days' Result rows.
func TestMergeAllocatesOneDayPerPart(t *testing.T) {
	full := t.TempDir()
	writeFeedDir(t, full)
	shards := t.TempDir()
	if _, err := feeds.PartitionDir(full, shards, 2, feeds.Options{}); err != nil {
		t.Fatal(err)
	}
	var parts, cuts []*Partial
	for s := range 2 {
		p := record(t, filepath.Join(shards, feeds.ShardDirName(s)))
		for i, q := range []*Partial{p, firstDays(p, 1)} {
			path := filepath.Join(t.TempDir(), fmt.Sprintf("part-%d-%d", s, i))
			if err := WriteFile(path, q); err != nil {
				t.Fatal(err)
			}
			r, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				parts = append(parts, r)
			} else {
				cuts = append(cuts, r)
			}
		}
	}
	merge := func(ps []*Partial) uint64 {
		return allocated(func() {
			if _, err := Merge(ps); err != nil {
				t.Fatal(err)
			}
		})
	}
	days := uint64(parts[0].days)
	rows := (days - 1) * uint64(unsafe.Sizeof(stream.MobilityDay{})+unsafe.Sizeof(stream.KPIDay{})+unsafe.Sizeof(EventTotals{}))
	got, oneDay := merge(parts), merge(cuts)
	t.Logf("Merge allocated %d bytes for %d-day parts, %d for one-day parts", got, days, oneDay)
	if got > oneDay+rows+1<<10 {
		t.Errorf("Merge of %d-day parts allocated %d bytes; of one-day parts %d, plus %d bytes of rows", days, got, oneDay, rows)
	}
}

// TestRecorderAllocatesItsBlocks pins the recorder's memory to its
// partial's file image. Past the first day, which grows the reused
// scratch (columns, sketch windows, block buffer), a day allocates only
// its exactly sized block: recording the fixture's days after the first
// allocates within 1.1× of the bytes those days add to the file.
func TestRecorderAllocatesItsBlocks(t *testing.T) {
	dir := t.TempDir()
	writeFeedDir(t, dir)
	meta, _, err := feeds.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(days int) (alloc uint64, size int64) {
		fs, err := feeds.OpenDirOpts(dir, feeds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		rec := NewRecorder(fixTopo, core.DefaultTopN, meta)
		traces, kpi, events := rec.Traces(), rec.KPI(), rec.Events()
		var idx []int
		for range days {
			b, err := fs.Next()
			if err != nil {
				t.Fatal(err)
			}
			idx = idx[:0]
			for i := range b.Events {
				idx = append(idx, i)
			}
			alloc += allocated(func() {
				events.BeginDay(b.Day, b.Events)
				events.ShardDay(0, b.Day, b.Events, idx)
				events.EndDay(b.Day)
				traces.ConsumeDay(b.Day, b.Traces)
				kpi.ConsumeDay(b.Day, b.Cells)
			})
			b.Release()
		}
		var p *Partial
		alloc += allocated(func() { p = rec.Partial() })
		path := filepath.Join(t.TempDir(), "partial")
		if err := WriteFile(path, p); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return alloc, fi.Size()
	}
	alloc1, size1 := run(1)
	alloc, size := run(fixDays)
	got, limit := alloc-alloc1, 1.1*float64(size-size1)
	t.Logf("recording days 2-%d allocated %d bytes; they add %d bytes to the file", fixDays, got, size-size1)
	if float64(got) > limit {
		t.Errorf("recording days 2-%d allocated %d bytes for the %d bytes they add to the file (limit %.0f)",
			fixDays, got, size-size1, limit)
	}
}
