package colfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

func mkVisit(tower int, bin int, sec int32, res bool) mobsim.Visit {
	return mobsim.MakeVisit(radio.TowerID(tower), timegrid.Bin(bin), sec, res)
}

// traceFixture is a hand-built multi-day feed exercising the format's
// corners: non-monotonic user IDs (negative deltas), a zero-visit user,
// an empty day block, extreme IDs and field extremes.
func traceFixture() map[timegrid.SimDay][]mobsim.DayTrace {
	return map[timegrid.SimDay][]mobsim.DayTrace{
		3: {
			{User: 5, Visits: []mobsim.Visit{mkVisit(0, 0, 0, false), mkVisit(1<<31-1, 5, mobsim.MaxVisitSeconds, true)}},
			{User: 9, Visits: []mobsim.Visit{mkVisit(42, 2, 14400, true)}},
			{User: 7, Visits: []mobsim.Visit{mkVisit(7, 1, 60, false), mkVisit(8, 3, 61, true), mkVisit(9, 4, 62, false)}},
		},
		4: {},
		5: {
			{User: 0, Visits: nil},
			{User: math.MaxUint32, Visits: []mobsim.Visit{mkVisit(12, 5, 86400, false)}},
		},
	}
}

var fixtureDays = []timegrid.SimDay{3, 4, 5}

// encodeTraces writes the fixture and returns the file bytes.
func encodeTraces(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	fix := traceFixture()
	for _, d := range fixtureDays {
		if err := w.WriteDay(d, fix[d]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readAllTraces(t *testing.T, data []byte, opt Options) (map[timegrid.SimDay][]mobsim.DayTrace, []timegrid.SimDay, *TraceReader, error) {
	t.Helper()
	r, err := NewTraceReaderOpts(bytes.NewReader(data), opt)
	if err != nil {
		return nil, nil, nil, err
	}
	got := map[timegrid.SimDay][]mobsim.DayTrace{}
	var order []timegrid.SimDay
	buf := mobsim.NewDayBuffer()
	for {
		day, err := r.ReadDayInto(buf)
		if err == io.EOF {
			return got, order, r, nil
		}
		if err != nil {
			return got, order, r, err
		}
		// Deep-copy: the buffer is reused across days.
		var traces []mobsim.DayTrace
		for _, tr := range buf.Traces() {
			traces = append(traces, mobsim.DayTrace{User: tr.User, Visits: append([]mobsim.Visit(nil), tr.Visits...)})
		}
		got[day] = traces
		order = append(order, day)
	}
}

func sameTraces(t *testing.T, day timegrid.SimDay, got, want []mobsim.DayTrace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("day %d: %d traces, want %d", day, len(got), len(want))
	}
	for i := range want {
		if got[i].User != want[i].User {
			t.Fatalf("day %d trace %d: user %d, want %d", day, i, got[i].User, want[i].User)
		}
		if len(got[i].Visits) != len(want[i].Visits) {
			t.Fatalf("day %d user %d: %d visits, want %d", day, want[i].User, len(got[i].Visits), len(want[i].Visits))
		}
		for j := range want[i].Visits {
			if got[i].Visits[j] != want[i].Visits[j] {
				t.Fatalf("day %d user %d visit %d: %v, want %v", day, want[i].User, j, got[i].Visits[j], want[i].Visits[j])
			}
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	data := encodeTraces(t)
	got, order, r, err := readAllTraces(t, data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(fixtureDays) {
		t.Fatalf("read %d days %v, want %v", len(order), order, fixtureDays)
	}
	fix := traceFixture()
	for i, d := range fixtureDays {
		if order[i] != d {
			t.Fatalf("day order %v, want %v", order, fixtureDays)
		}
		sameTraces(t, d, got[d], fix[d])
	}
	if r.Skipped() != 0 {
		t.Fatalf("clean feed skipped %d blocks", r.Skipped())
	}
}

func TestTraceUserRange(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriterRange(&buf, 100, 199)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if lo, hi := binary.LittleEndian.Uint32(h[8:12]), binary.LittleEndian.Uint32(h[12:16]); lo != 100 || hi != 199 {
		t.Fatalf("header user range = %d,%d, want 100,199", lo, hi)
	}
	r, err := NewTraceReaderOpts(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadDayInto(mobsim.NewDayBuffer()); err != io.EOF {
		t.Fatalf("empty feed read = %v, want io.EOF", err)
	}
}

func kpiFixture() map[timegrid.SimDay][]traffic.CellDay {
	mk := func(cell int, seed float64) traffic.CellDay {
		c := traffic.CellDay{Cell: radio.CellID(cell)}
		for m := 0; m < traffic.NumMetrics; m++ {
			c.Values[m] = seed * float64(m+1)
		}
		return c
	}
	weird := traffic.CellDay{Cell: 2}
	weird.Values[0] = math.NaN()
	weird.Values[1] = math.Inf(1)
	weird.Values[2] = -0.0
	return map[timegrid.SimDay][]traffic.CellDay{
		10: {mk(30, 1.25), mk(7, 1e-12), mk(math.MaxInt32, 9.75e11)},
		11: {weird},
	}
}

var kpiDays = []timegrid.SimDay{10, 11}

func TestKPIRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewKPIWriter(&buf)
	fix := kpiFixture()
	for _, d := range kpiDays {
		if err := w.WriteDay(d, fix[d]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewKPIReaderOpts(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cells []traffic.CellDay
	for _, d := range kpiDays {
		day, out, err := r.ReadDayAppend(cells[:0])
		if err != nil {
			t.Fatal(err)
		}
		cells = out
		if day != d {
			t.Fatalf("day = %d, want %d", day, d)
		}
		want := fix[d]
		if len(cells) != len(want) {
			t.Fatalf("day %d: %d cells, want %d", d, len(cells), len(want))
		}
		for i := range want {
			if cells[i].Cell != want[i].Cell {
				t.Fatalf("day %d cell %d: ID %d, want %d", d, i, cells[i].Cell, want[i].Cell)
			}
			for m := 0; m < traffic.NumMetrics; m++ {
				// Bit comparison: NaN and signed zero must survive exactly.
				if math.Float64bits(cells[i].Values[m]) != math.Float64bits(want[i].Values[m]) {
					t.Fatalf("day %d cell %d metric %d: %v, want %v (bit-exact)", d, i, m, cells[i].Values[m], want[i].Values[m])
				}
			}
		}
	}
	if _, _, err := r.ReadDayAppend(nil); err != io.EOF {
		t.Fatalf("exhausted feed read = %v, want io.EOF", err)
	}
}

func TestFileHeaderErrors(t *testing.T) {
	good := encodeTraces(t)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncated},
		{"short header", func(b []byte) []byte { return b[:7] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"wrong kind", func(b []byte) []byte { b[5] = KindKPI; return b }, ErrKind},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), good...))
			for _, lenient := range []bool{false, true} {
				_, err := NewTraceReaderOpts(bytes.NewReader(data), Options{Name: "t.col", Lenient: lenient})
				if err == nil {
					t.Fatalf("lenient=%v: header accepted", lenient)
				}
				if c.want != ErrTruncated && !errors.Is(err, c.want) {
					t.Fatalf("lenient=%v: err = %v, want %v", lenient, err, c.want)
				}
				var be *BlockError
				if !errors.As(err, &be) {
					t.Fatalf("lenient=%v: err %T is not a *BlockError", lenient, err)
				}
				if !strings.HasPrefix(err.Error(), "colfmt: t.col:0:") {
					t.Fatalf("lenient=%v: err %q lacks file:offset context", lenient, err)
				}
			}
		})
	}
}

// blockOffsets walks the encoded feed and returns each block's start.
func blockOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := fileHeaderSize
	for off < len(data) {
		offs = append(offs, off)
		plen := int(binary.LittleEndian.Uint32(data[off+12 : off+16]))
		off += blockHeaderSize + plen + 4
	}
	if off != len(data) {
		t.Fatalf("block walk ended at %d of %d bytes", off, len(data))
	}
	return offs
}

// setDay rewrites a block's day field and re-checksums the block: the
// damage is a day outside the simulated window, not a CRC mismatch.
func setDay(data []byte, blockOff int, day int32) {
	binary.LittleEndian.PutUint32(data[blockOff:], uint32(day))
	recrc(data, blockOff)
}

// recrc recomputes a block's CRC footer after a deliberate mutation, so
// the damage is semantic rather than a checksum mismatch.
func recrc(data []byte, blockOff int) {
	plen := int(binary.LittleEndian.Uint32(data[blockOff+12 : blockOff+16]))
	end := blockOff + blockHeaderSize + plen
	sum := crc32.ChecksumIEEE(data[blockOff:end])
	binary.LittleEndian.PutUint32(data[end:], sum)
}

func TestCorruptBlockStrict(t *testing.T) {
	good := encodeTraces(t)
	offs := blockOffsets(t, good)
	day3 := offs[0]
	plen := int(binary.LittleEndian.Uint32(good[day3+12 : day3+16]))

	cases := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"payload bit flip", func(b []byte) { b[day3+blockHeaderSize+2] ^= 0x40 }, ErrChecksum},
		{"header count blown up", func(b []byte) { b[day3+11] ^= 0x40 }, ErrCorrupt}, // countB outgrows the payload bounds
		{"header small flip", func(b []byte) { b[day3+4] ^= 0x01 }, ErrChecksum},     // countA off by one, caught by the CRC
		{"non-canonical visit word", func(b []byte) {
			// Highest byte of the last pack word (little-endian): set bit 31.
			b[day3+blockHeaderSize+plen-1] |= 0x80
			recrc(b, day3)
		}, ErrCorrupt},
		{"day past the window", func(b []byte) { setDay(b, day3, 500) }, ErrCorrupt},
		{"negative day", func(b []byte) { setDay(b, day3, -3) }, ErrCorrupt},
		{"truncated tail", func(b []byte) {}, ErrTruncated}, // handled below by slicing
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := append([]byte(nil), good...)
			c.mutate(data)
			if c.want == ErrTruncated {
				data = data[:day3+blockHeaderSize+3]
			}
			_, _, _, err := readAllTraces(t, data, Options{Name: "t.col"})
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			var be *BlockError
			if !errors.As(err, &be) {
				t.Fatalf("err %T is not a *BlockError", err)
			}
			if be.Offset != int64(day3) {
				t.Fatalf("error offset %d, want block start %d", be.Offset, day3)
			}
		})
	}
}

func TestCorruptBlockLenient(t *testing.T) {
	good := encodeTraces(t)
	offs := blockOffsets(t, good)
	fix := traceFixture()

	for _, c := range []struct {
		name   string
		mutate func([]byte)
	}{
		{"payload bit flip", func(b []byte) { b[offs[0]+blockHeaderSize+2] ^= 0x40 }},
		{"non-canonical visit word", func(b []byte) {
			plen := int(binary.LittleEndian.Uint32(b[offs[0]+12 : offs[0]+16]))
			b[offs[0]+blockHeaderSize+plen-1] |= 0x80
			recrc(b, offs[0])
		}},
		{"header bit flip", func(b []byte) { b[offs[0]+4] ^= 0x01 }},               // caught by CRC, skip to next block
		{"header count blown up resync", func(b []byte) { b[offs[0]+11] ^= 0x40 }}, // bounds reject; resync via payload length
		{"day past the window", func(b []byte) { setDay(b, offs[0], 500) }},
		{"negative day", func(b []byte) { setDay(b, offs[0], -3) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := append([]byte(nil), good...)
			c.mutate(data)
			var skips []int
			opt := Options{Name: "t.col", Lenient: true, OnSkip: func(name string, off int, err error) {
				if name != "t.col" {
					t.Errorf("OnSkip name %q", name)
				}
				skips = append(skips, off)
			}}
			got, order, r, err := readAllTraces(t, data, opt)
			if err != nil {
				t.Fatalf("lenient replay failed: %v", err)
			}
			if len(order) != 2 || order[0] != 4 || order[1] != 5 {
				t.Fatalf("days read = %v, want [4 5]", order)
			}
			sameTraces(t, 5, got[5], fix[5])
			if r.Skipped() != 1 {
				t.Fatalf("Skipped() = %d, want 1", r.Skipped())
			}
			if len(skips) != 1 || skips[0] != offs[0] {
				t.Fatalf("OnSkip offsets %v, want [%d]", skips, offs[0])
			}
		})
	}
}

func TestTruncatedTailLenient(t *testing.T) {
	good := encodeTraces(t)
	offs := blockOffsets(t, good)
	// Cut mid-way through the last block's payload.
	data := append([]byte(nil), good[:offs[2]+blockHeaderSize+5]...)
	got, order, r, err := readAllTraces(t, data, Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient replay failed: %v", err)
	}
	if len(order) != 2 || order[0] != 3 || order[1] != 4 {
		t.Fatalf("days read = %v, want [3 4]", order)
	}
	sameTraces(t, 3, got[3], traceFixture()[3])
	if r.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", r.Skipped())
	}
}

func TestKPICorruptLenient(t *testing.T) {
	var buf bytes.Buffer
	w := NewKPIWriter(&buf)
	fix := kpiFixture()
	for _, d := range kpiDays {
		if err := w.WriteDay(d, fix[d]); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	offs := blockOffsets(t, data)
	data[offs[0]+blockHeaderSize] ^= 0xFF

	r, err := NewKPIReaderOpts(bytes.NewReader(data), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	day, cells, err := r.ReadDayAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	if day != 11 || len(cells) != 1 || r.Skipped() != 1 {
		t.Fatalf("day=%d cells=%d skipped=%d, want 11/1/1", day, len(cells), r.Skipped())
	}
	// Strict mode on the same bytes fails with offset context instead.
	rs, err := NewKPIReaderOpts(bytes.NewReader(data), Options{Name: "k.col"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rs.ReadDayAppend(nil)
	var be *BlockError
	if !errors.As(err, &be) || be.Offset != int64(offs[0]) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("strict err = %v, want checksum BlockError at %d", err, offs[0])
	}
	// A block dated outside the simulated window is rejected from its
	// header, before the payload is decoded.
	setDay(data, offs[0], 500)
	if rs, err = NewKPIReaderOpts(bytes.NewReader(data), Options{Name: "k.col"}); err != nil {
		t.Fatal(err)
	}
	_, _, err = rs.ReadDayAppend(nil)
	if !errors.As(err, &be) || be.Offset != int64(offs[0]) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "simulated window") {
		t.Fatalf("strict err = %v, want day-window BlockError at %d", err, offs[0])
	}
}

// TestTraceReadSteadyStateAllocs pins the tentpole guarantee: a warm
// reader refilling a warm DayBuffer decodes a day block with zero heap
// allocations — the property that lets columnar replay keep up with the
// zero-alloc simulation path it feeds.
func TestTraceReadSteadyStateAllocs(t *testing.T) {
	data := encodeTraces(t)
	br := bytes.NewReader(data)
	r, err := NewTraceReaderOpts(br, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	warm := func() {
		br.Reset(data)
		if err := r.Reset(br, r.b.opt); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.ReadDayInto(buf); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
			buf.Traces()
		}
	}
	warm()
	allocs := testing.AllocsPerRun(10, warm)
	if allocs > 0 {
		t.Errorf("steady-state columnar trace replay allocates %.1f times per feed, want 0", allocs)
	}
}

// TestKPIReadSteadyStateAllocs pins the same guarantee for the KPI
// reader with a reused destination slice.
func TestKPIReadSteadyStateAllocs(t *testing.T) {
	var w bytes.Buffer
	kw := NewKPIWriter(&w)
	fix := kpiFixture()
	for _, d := range kpiDays {
		if err := kw.WriteDay(d, fix[d]); err != nil {
			t.Fatal(err)
		}
	}
	data := w.Bytes()
	br := bytes.NewReader(data)
	r, err := NewKPIReaderOpts(br, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cells []traffic.CellDay
	warm := func() {
		br.Reset(data)
		if err := r.b.init(br, r.b.opt, KindKPI, "KPI feed"); err != nil {
			t.Fatal(err)
		}
		for {
			_, out, err := r.ReadDayAppend(cells[:0])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			cells = out
		}
	}
	warm()
	allocs := testing.AllocsPerRun(10, warm)
	if allocs > 0 {
		t.Errorf("steady-state columnar KPI replay allocates %.1f times per feed, want 0", allocs)
	}
}

// TestColdDecodeSizedFromHeader pins that a decode sizes its stores
// from the block header's counts: a fresh DayBuffer gets a trace index
// of exactly the day's user count (and the reader's user and count
// scratch the same), a warm buffer keeps its index through smaller and
// equal days, and ReadDayAppend(nil) makes one allocation of exactly
// the day's cell count plus an eighth (the grow.Slack policy).
func TestColdDecodeSizedFromHeader(t *testing.T) {
	const n = 1000
	day := func(users int) []mobsim.DayTrace {
		traces := make([]mobsim.DayTrace, users)
		for i := range traces {
			traces[i] = mobsim.DayTrace{User: popsim.UserID(3 * i), Visits: []mobsim.Visit{mkVisit(i, i%timegrid.BinsPerDay, 60, i%2 == 0)}}
		}
		return traces
	}
	var tb bytes.Buffer
	tw := NewTraceWriter(&tb)
	for d, users := range []int{n, n / 2, n} {
		if err := tw.WriteDay(timegrid.SimDay(d), day(users)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReaderOpts(bytes.NewReader(tb.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	var index *mobsim.DayTrace
	for d, users := range []int{n, n / 2, n} {
		if _, err := tr.ReadDayInto(buf); err != nil {
			t.Fatal(err)
		}
		traces := buf.Traces()
		if len(traces) != users || cap(traces) != n {
			t.Fatalf("day %d: %d traces in an index of capacity %d, want %d in %d", d, len(traces), cap(traces), users, n)
		}
		if d == 0 {
			index = &traces[0]
			if cap(tr.users) != n || cap(tr.counts) != n {
				t.Fatalf("cold user/count scratch capacity %d/%d, want %d", cap(tr.users), cap(tr.counts), n)
			}
		} else if &traces[0] != index {
			t.Fatalf("day %d: a warm buffer reallocated its trace index", d)
		}
	}

	cells := make([]traffic.CellDay, n)
	for i := range cells {
		cells[i].Cell = radio.CellID(2 * i)
	}
	var kb bytes.Buffer
	kw := NewKPIWriter(&kb)
	if err := kw.WriteDay(7, cells); err != nil {
		t.Fatal(err)
	}
	if err := kw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bytes.NewReader(kb.Bytes())
	kr, err := NewKPIReaderOpts(br, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []traffic.CellDay
	read := func() {
		br.Reset(kb.Bytes())
		if err := kr.b.init(br, kr.b.opt, KindKPI, "KPI feed"); err != nil {
			t.Fatal(err)
		}
		if _, got, err = kr.ReadDayAppend(nil); err != nil {
			t.Fatal(err)
		}
	}
	read() // warms the reader's payload scratch
	if allocs := testing.AllocsPerRun(10, read); allocs != 1 {
		t.Errorf("ReadDayAppend(nil) allocates %.1f times, want 1", allocs)
	}
	if len(got) != n || cap(got) != n+n/8 {
		t.Fatalf("ReadDayAppend(nil) returned %d cells in capacity %d, want %d in %d", len(got), cap(got), n, n+n/8)
	}
}

// TestHugeClaimedPayload pins the fuzz-hardening bound: a block header
// claiming a multi-gigabyte payload on a tiny file must fail fast at
// EOF (with a truncation error) after a few MiB of allocation (the
// readAhead bound), not attempt the full allocation.
func TestHugeClaimedPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, blockHeaderSize)
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<20)       // 1M users
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<26)      // 67M visits
	binary.LittleEndian.PutUint32(hdr[12:16], 545259520) // ~520 MiB claimed, within header bounds
	buf.Write(hdr)
	buf.WriteString("short")
	var err error
	alloc := totalAlloc(func() { _, _, _, err = readAllTraces(t, buf.Bytes(), Options{}) })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want truncation", err)
	}
	if limit := uint64(4 << 20); alloc > limit {
		t.Fatalf("reading a block that claims 520 MiB allocated %d bytes, want at most %d", alloc, limit)
	}
}

// totalAlloc returns the bytes allocated while f runs.
func totalAlloc(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// growingTraceDays returns day traces of n, n+n/16, n/2 and n+n/10
// users (user i at ID 3i with 1 + i%3 visits), so each later block is
// at most a tenth larger than the first.
func growingTraceDays(n int) [][]mobsim.DayTrace {
	var days [][]mobsim.DayTrace
	for _, users := range []int{n, n + n/16, n / 2, n + n/10} {
		traces := make([]mobsim.DayTrace, users)
		for i := range traces {
			visits := make([]mobsim.Visit, 1+i%3)
			for k := range visits {
				visits[k] = mkVisit(i+k, (i+k)%timegrid.BinsPerDay, int32(60*k), k == 0)
			}
			traces[i] = mobsim.DayTrace{User: popsim.UserID(3 * i), Visits: visits}
		}
		days = append(days, traces)
	}
	return days
}

// growingCellDays returns cell records of n, n+n/16, n/2 and n+n/10
// cells.
func growingCellDays(n int) [][]traffic.CellDay {
	var days [][]traffic.CellDay
	for _, count := range []int{n, n + n/16, n / 2, n + n/10} {
		cells := make([]traffic.CellDay, count)
		for i := range cells {
			cells[i].Cell = radio.CellID(2 * i)
			for m := range cells[i].Values {
				cells[i].Values[m] = float64(i*m) + 0.5
			}
		}
		days = append(days, cells)
	}
	return days
}

// TestColdReadScratchAllocatedOnce pins the payload scratch policy: a
// cold reader allocates its scratch once, at the first block plus an
// eighth, and keeps it through later blocks up to that headroom.
func TestColdReadScratchAllocatedOnce(t *testing.T) {
	const n = 2000
	var tb, kb bytes.Buffer
	tw, kw := NewTraceWriter(&tb), NewKPIWriter(&kb)
	for d, traces := range growingTraceDays(n) {
		if err := tw.WriteDay(timegrid.SimDay(d), traces); err != nil {
			t.Fatal(err)
		}
	}
	for d, cells := range growingCellDays(n) {
		if err := kw.WriteDay(timegrid.SimDay(d), cells); err != nil {
			t.Fatal(err)
		}
	}
	// check reads every block through read and asserts that the scratch
	// is the one the first block allocated, of the first block's
	// payload and CRC plus an eighth.
	check := func(name string, data []byte, b *blockReader, read func() error) {
		t.Helper()
		offs := blockOffsets(t, data)
		want := func(i int) int { return int(binary.LittleEndian.Uint32(data[offs[i]+12:])) + 4 }
		first, size := &b.scratch, want(0)+want(0)/8
		var scratch *byte
		for i := range offs {
			if want(i) > size {
				t.Fatalf("%s fixture: block %d needs %d bytes, beyond the headroom %d", name, i, want(i), size)
			}
			if err := read(); err != nil {
				t.Fatalf("%s block %d: %v", name, i, err)
			}
			if cap(*first) != size {
				t.Fatalf("%s block %d: scratch capacity %d, want %d", name, i, cap(*first), size)
			}
			if p := &(*first)[:1][0]; i == 0 {
				scratch = p
			} else if p != scratch {
				t.Fatalf("%s block %d: payload scratch reallocated", name, i)
			}
		}
	}
	tr, err := NewTraceReaderOpts(bytes.NewReader(tb.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	check("trace", tb.Bytes(), &tr.b, func() error { _, err := tr.ReadDayInto(buf); return err })
	kr, err := NewKPIReaderOpts(bytes.NewReader(kb.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cells []traffic.CellDay
	check("KPI", kb.Bytes(), &kr.b, func() error { _, cells, err = kr.ReadDayAppend(cells[:0]); return err })
}

// TestReadBlockBeyondReadAhead reads a block several times larger than
// readAhead, whose scratch is grown in steps as the payload arrives,
// and checks that it decodes intact.
func TestReadBlockBeyondReadAhead(t *testing.T) {
	visits := make([]mobsim.Visit, 3*readAhead/8)
	for i := range visits {
		visits[i] = mkVisit(i, i%timegrid.BinsPerDay, int32(i%mobsim.MaxVisitSeconds), i%2 == 0)
	}
	want := map[timegrid.SimDay][]mobsim.DayTrace{
		1: {{User: 4, Visits: visits[:len(visits)/3]}, {User: 8, Visits: visits[len(visits)/3:]}},
		2: {{User: 4, Visits: visits[:5]}},
	}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	for _, d := range []timegrid.SimDay{1, 2} {
		if err := w.WriteDay(d, want[d]); err != nil {
			t.Fatal(err)
		}
	}
	got, order, _, err := readAllTraces(t, buf.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("read days %v, want [1 2]", order)
	}
	for _, d := range order {
		sameTraces(t, d, got[d], want[d])
	}
}

// TestWriteDaySteadyStateAllocs pins the writers' allocation contract:
// a cold writer allocates its block buffer once, on its first day,
// while later days grow by less than an eighth, and a warm writer
// writes a day block without allocating. It also pins the bytes written
// against a hand-encoded block: writer output is a contract (feeds
// written by earlier builds are replayed as they are).
func TestWriteDaySteadyStateAllocs(t *testing.T) {
	traceDays, cellDays := growingTraceDays(1000), growingCellDays(1000)
	cold := func() {
		tw, kw := NewTraceWriter(io.Discard), NewKPIWriter(io.Discard)
		for d := range traceDays {
			if err := tw.WriteDay(timegrid.SimDay(d), traceDays[d]); err != nil {
				t.Fatal(err)
			}
			if err := kw.WriteDay(timegrid.SimDay(d), cellDays[d]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two writers, plus one block buffer each.
	if allocs := testing.AllocsPerRun(20, cold); allocs != 4 {
		t.Errorf("cold writers allocate %.1f times per feed of %d growing days, want 4", allocs, len(traceDays))
	}
	tw, kw := NewTraceWriter(io.Discard), NewKPIWriter(io.Discard)
	warm := func() {
		for d := range traceDays {
			if err := tw.WriteDay(timegrid.SimDay(d), traceDays[d]); err != nil {
				t.Fatal(err)
			}
			if err := kw.WriteDay(timegrid.SimDay(d), cellDays[d]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, warm); allocs > 0 {
		t.Errorf("warm writers allocate %.1f times per feed, want 0", allocs)
	}

	// Hand-encoded trace feed: users 300, 3, 9 (uvarint 300, then zig-zag
	// deltas -297 and +6), visit counts 2, 1, 0, the tower words, then
	// the pack words.
	v := []mobsim.Visit{mkVisit(300, 1, 60, true), mkVisit(7, 2, 3600, false), mkVisit(1<<31-1, 5, mobsim.MaxVisitSeconds, true)}
	var tb bytes.Buffer
	w := NewTraceWriterRange(&tb, 3, 300)
	if err := w.WriteDay(7, []mobsim.DayTrace{{User: 300, Visits: v[:2]}, {User: 3, Visits: v[2:]}, {User: 9}}); err != nil {
		t.Fatal(err)
	}
	want := []byte{'M', 'N', 'O', 'C', Version, KindTraces, 0, 0, 3, 0, 0, 0, 0x2c, 1, 0, 0}
	block := []byte{7, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 32, 0, 0, 0, 0xac, 0x02, 0xd1, 0x04, 0x0c, 2, 1, 0}
	for _, v := range v {
		tower, _ := v.Words()
		block = binary.LittleEndian.AppendUint32(block, tower)
	}
	for _, v := range v {
		_, pack := v.Words()
		block = binary.LittleEndian.AppendUint32(block, pack)
	}
	want = append(want, binary.LittleEndian.AppendUint32(block, crc32.ChecksumIEEE(block))...)
	if !bytes.Equal(tb.Bytes(), want) {
		t.Errorf("trace feed bytes\n%x\nwant hand-encoded\n%x", tb.Bytes(), want)
	}

	// Hand-encoded KPI feed: cells 40 and 2 (uvarint 40, zig-zag -38),
	// then one column of float64 bits per metric.
	cells := []traffic.CellDay{{Cell: 40}, {Cell: 2}}
	for m := range cells[0].Values {
		cells[0].Values[m], cells[1].Values[m] = float64(m)+0.25, -float64(m)
	}
	var kb bytes.Buffer
	k := NewKPIWriter(&kb)
	if err := k.WriteDay(9, cells); err != nil {
		t.Fatal(err)
	}
	want = []byte{'M', 'N', 'O', 'C', Version, KindKPI, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	block = []byte{9, 0, 0, 0, 2, 0, 0, 0, byte(traffic.NumMetrics), 0, 0, 0, byte(2 + 16*traffic.NumMetrics), 0, 0, 0, 0x28, 0x4b}
	for m := 0; m < traffic.NumMetrics; m++ {
		for _, c := range cells {
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(c.Values[m]))
		}
	}
	want = append(want, binary.LittleEndian.AppendUint32(block, crc32.ChecksumIEEE(block))...)
	if !bytes.Equal(kb.Bytes(), want) {
		t.Errorf("KPI feed bytes\n%x\nwant hand-encoded\n%x", kb.Bytes(), want)
	}
}
