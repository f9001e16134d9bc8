package partial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
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
	p, err := decode(bytes.NewReader(b), "partial")
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding what was read reproduces the file byte for byte, so
	// every float64 bit pattern and sketch count survived the trip.
	again := filepath.Join(dir, "again")
	if err := WriteFile(again, p); err != nil {
		t.Fatal(err)
	}
	if b2, err := os.ReadFile(again); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("re-encoded partial differs from the original (err %v)", err)
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
	// One day of a real 500-user partial keeps the seed near 10 KB; the
	// fuzzer crawls on the full 70 KB file.
	p, err := decode(bytes.NewReader(realPartial(f)), "seed")
	if err != nil {
		f.Fatal(err)
	}
	p.Days = p.Days[:1]
	path := filepath.Join(f.TempDir(), "seed")
	if err := WriteFile(path, p); err != nil {
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
