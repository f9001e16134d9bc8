package colfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/grow"
	"repro/internal/mobsim"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// varintMax is the widest varint a block column holds: user IDs are
// uint32, cell IDs int32, and a user's visit count is at most the
// block's uint32 visit total, so a value or a zig-zag delta of two
// takes at most 5 bytes.
const varintMax = binary.MaxVarintLen32

// blockWriter is the machinery shared by the trace and KPI writers: the
// file header, which goes out with the first block (or Flush, so an
// empty feed is still a valid file), and one reused block buffer.
type blockWriter struct {
	w       io.Writer
	started bool
	buf     []byte
	// hdr is the file header; a field rather than a local so the Write
	// interface call does not force a heap escape.
	hdr [fileHeaderSize]byte
}

func (b *blockWriter) init(w io.Writer, kind byte, userLo, userHi uint32) {
	b.w = w
	copy(b.hdr[:4], Magic)
	b.hdr[4] = Version
	b.hdr[5] = kind
	binary.LittleEndian.PutUint32(b.hdr[8:12], userLo)
	binary.LittleEndian.PutUint32(b.hdr[12:16], userHi)
}

// header writes the file header unless it has gone out already.
func (b *blockWriter) header() error {
	if b.started {
		return nil
	}
	if _, err := b.w.Write(b.hdr[:]); err != nil {
		return err
	}
	b.started = true
	return nil
}

// start writes the file header if needed and returns the block buffer,
// emptied, with room for a whole block of at most size bytes, header
// and CRC footer included (grow.Slack, so later, slightly larger days
// reuse it), and a block header placeholder appended; the counts and
// payload length are patched in by finish.
func (b *blockWriter) start(day timegrid.SimDay, size int) ([]byte, error) {
	if err := b.header(); err != nil {
		return nil, err
	}
	if int64(day) < math.MinInt32 || int64(day) > math.MaxInt32 {
		return nil, fmt.Errorf("colfmt: day %d does not fit the int32 day field", day)
	}
	blk := grow.Slack(b.buf, size)
	blk = append(blk, make([]byte, blockHeaderSize)...)
	binary.LittleEndian.PutUint32(blk[0:4], uint32(int32(day)))
	return blk, nil
}

// finish patches the header counts, appends the CRC footer, writes the
// block and keeps its buffer for the next one.
func (b *blockWriter) finish(blk []byte, countA, countB int) error {
	b.buf = blk[:0]
	if countA > math.MaxUint32 || countB > math.MaxUint32 {
		return fmt.Errorf("colfmt: block counts %d/%d overflow uint32", countA, countB)
	}
	binary.LittleEndian.PutUint32(blk[4:8], uint32(countA))
	binary.LittleEndian.PutUint32(blk[8:12], uint32(countB))
	binary.LittleEndian.PutUint32(blk[12:16], uint32(len(blk)-blockHeaderSize))
	blk = binary.LittleEndian.AppendUint32(blk, crc32.ChecksumIEEE(blk))
	_, err := b.w.Write(blk)
	return err
}

// TraceWriter streams day traces as columnar day blocks, one WriteDay
// per block.
type TraceWriter struct {
	b blockWriter
}

// NewTraceWriter returns a writer for an unpartitioned trace feed.
func NewTraceWriter(w io.Writer) *TraceWriter { return NewTraceWriterRange(w, 0, 0) }

// NewTraceWriterRange returns a writer stamping the partition shard's
// user range [lo, hi] into the file header.
func NewTraceWriterRange(w io.Writer, lo, hi uint32) *TraceWriter {
	t := &TraceWriter{}
	t.b.init(w, KindTraces, lo, hi)
	return t
}

// WriteDay appends one day block. An empty trace slice still writes a
// block: partition shards keep every day present so the replay day
// cursor stays aligned with the KPI and event feeds.
func (t *TraceWriter) WriteDay(day timegrid.SimDay, traces []mobsim.DayTrace) error {
	visits := 0
	for i := range traces {
		visits += len(traces[i].Visits)
	}
	b, err := t.b.start(day, blockHeaderSize+2*varintMax*len(traces)+8*visits+4)
	if err != nil {
		return err
	}
	// User ID column: absolute first, zig-zag deltas after.
	prev := int64(0)
	for i := range traces {
		u := int64(traces[i].User)
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(u))
		} else {
			b = binary.AppendVarint(b, u-prev)
		}
		prev = u
	}
	// Per-user visit counts (the offset deltas).
	for i := range traces {
		b = binary.AppendUvarint(b, uint64(len(traces[i].Visits)))
	}
	// Tower column, then the packed seconds|bin|residence column — the
	// two Visit words verbatim.
	for i := range traces {
		for _, v := range traces[i].Visits {
			tower, _ := v.Words()
			b = binary.LittleEndian.AppendUint32(b, tower)
		}
	}
	for i := range traces {
		for _, v := range traces[i].Visits {
			_, pack := v.Words()
			b = binary.LittleEndian.AppendUint32(b, pack)
		}
	}
	return t.b.finish(b, len(traces), visits)
}

// Flush finalizes the file, writing the header if no day has been
// written yet. (Blocks are written eagerly; there is nothing buffered.)
func (t *TraceWriter) Flush() error { return t.b.header() }

// KPIWriter streams per-cell daily KPI records as columnar day blocks.
type KPIWriter struct {
	b blockWriter
}

// NewKPIWriter returns a writer; the file header goes out with the
// first day (or Flush).
func NewKPIWriter(w io.Writer) *KPIWriter {
	k := &KPIWriter{}
	k.b.init(w, KindKPI, 0, 0)
	return k
}

// WriteDay appends one day of cell records as a block.
func (k *KPIWriter) WriteDay(day timegrid.SimDay, cells []traffic.CellDay) error {
	b, err := k.b.start(day, blockHeaderSize+(varintMax+8*traffic.NumMetrics)*len(cells)+4)
	if err != nil {
		return err
	}
	// Cell ID column: absolute first, zig-zag deltas after.
	prev := int64(0)
	for i := range cells {
		c := int64(cells[i].Cell)
		if c < 0 || c > math.MaxInt32 {
			return fmt.Errorf("colfmt: cell ID %d out of range [0,%d]", c, math.MaxInt32)
		}
		if i == 0 {
			b = binary.AppendUvarint(b, uint64(c))
		} else {
			b = binary.AppendVarint(b, c-prev)
		}
		prev = c
	}
	// One column per metric, cells in row order, raw float64 bits.
	for m := 0; m < traffic.NumMetrics; m++ {
		for i := range cells {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cells[i].Values[m]))
		}
	}
	return k.b.finish(b, len(cells), traffic.NumMetrics)
}

// Flush finalizes the file, writing the header if no day has been
// written yet.
func (k *KPIWriter) Flush() error { return k.b.header() }
