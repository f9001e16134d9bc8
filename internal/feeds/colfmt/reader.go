package colfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/grow"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// blockHead is a decoded day-block header.
type blockHead struct {
	day            int32
	countA, countB uint32
	payloadLen     uint32
}

// blockReader is the machinery shared by the trace and KPI readers:
// file header validation, block framing, CRC checking, payload reads
// into reused scratch, offset tracking and the strict/lenient
// skip protocol.
type blockReader struct {
	r        io.Reader
	opt      Options
	kind     byte
	fallback string

	off     int64
	skipped int64
	scratch []byte
	// hdr is the 16-byte header scratch; a field rather than a local so
	// the io.ReadFull interface call does not force a heap escape on
	// every block.
	hdr [blockHeaderSize]byte
}

func (b *blockReader) label() string { return b.opt.label(b.fallback) }

// init (re)binds the reader to a stream and validates the file header.
// Scratch capacity is retained, so resetting a warm reader onto a new
// stream reads without allocating.
func (b *blockReader) init(r io.Reader, opt Options, kind byte, fallback string) error {
	b.r, b.opt, b.kind, b.fallback = r, opt, kind, fallback
	b.off, b.skipped = 0, 0
	h := b.hdr[:fileHeaderSize]
	n, err := io.ReadFull(b.r, h)
	b.off += int64(n)
	if err != nil {
		return &BlockError{Name: b.label(), Offset: 0, Err: fmt.Errorf("reading file header: %w", err)}
	}
	switch {
	case string(h[:4]) != Magic:
		err = ErrBadMagic
	case h[4] != Version:
		err = fmt.Errorf("%w %d (this build reads %d)", ErrVersion, h[4], Version)
	case h[5] != b.kind:
		err = fmt.Errorf("%w %d (want %d)", ErrKind, h[5], b.kind)
	}
	if err != nil {
		return &BlockError{Name: b.label(), Offset: 0, Err: err}
	}
	return nil
}

// skip records one lenient-mode block skip.
func (b *blockReader) skip(off int64, err error) {
	b.skipped++
	if b.opt.OnSkip != nil {
		b.opt.OnSkip(b.label(), int(off), err)
	}
}

// readN reads n bytes into scratch. It returns how many bytes arrived;
// err is non-nil when fewer than n did. A short scratch is replaced
// once, with room for n plus an eighth (the grow.Slack policy), so days
// a little larger than this one reuse it. No allocation exceeds twice the bytes that have
// arrived plus readAhead: a block larger than that is grown in steps as
// it arrives, and a corrupt length fails at EOF after a bounded
// allocation.
func (b *blockReader) readN(n int) (int, error) {
	got := 0
	for got < n {
		if c := cap(b.scratch); c < n && (got == 0 || got == c) {
			size := min(n+n/8, 2*got+readAhead)
			b.scratch = append(make([]byte, 0, size), b.scratch[:got]...)
		}
		m, err := io.ReadFull(b.r, b.scratch[got:min(n, cap(b.scratch))])
		got += m
		b.off += int64(m)
		if err != nil {
			return got, err
		}
	}
	return n, nil
}

// nextBlock reads, frames and CRC-checks the next day block, returning
// its header, payload (aliasing scratch, valid until the next read) and
// starting offset. validate vets the header's counts against the
// payload length before anything is allocated. It returns io.EOF at a
// clean end of feed, and otherwise applies the strict/lenient contract:
// in lenient mode damaged blocks are skipped and the scan continues.
func (b *blockReader) nextBlock(validate func(blockHead) error) (blockHead, []byte, int64, error) {
	for {
		start := b.off
		hb := b.hdr[:]
		n, err := io.ReadFull(b.r, hb)
		b.off += int64(n)
		if n == 0 && err == io.EOF {
			return blockHead{}, nil, start, io.EOF
		}
		if err != nil {
			terr := fmt.Errorf("%w: %d-byte block header fragment", ErrTruncated, n)
			if b.opt.Lenient {
				b.skip(start, terr)
				return blockHead{}, nil, start, io.EOF
			}
			return blockHead{}, nil, start, &BlockError{Name: b.label(), Offset: start, Err: terr}
		}
		h := blockHead{
			day:        int32(binary.LittleEndian.Uint32(hb[0:4])),
			countA:     binary.LittleEndian.Uint32(hb[4:8]),
			countB:     binary.LittleEndian.Uint32(hb[8:12]),
			payloadLen: binary.LittleEndian.Uint32(hb[12:16]),
		}
		if verr := validate(h); verr != nil {
			verr = fmt.Errorf("%w: %v", ErrCorrupt, verr)
			if !b.opt.Lenient {
				return blockHead{}, nil, start, &BlockError{Name: b.label(), Offset: start, Err: verr}
			}
			// Resync by trusting the claimed payload length; when that too
			// is damaged this runs into EOF or the next CRC failure, and
			// the tail degrades to further skipped blocks.
			b.skip(start, verr)
			if _, err := b.readN(int(h.payloadLen) + 4); err != nil {
				return blockHead{}, nil, start, io.EOF
			}
			continue
		}
		want := int(h.payloadLen) + 4
		if got, rerr := b.readN(want); rerr != nil {
			terr := fmt.Errorf("%w: %d of %d payload bytes", ErrTruncated, got, want)
			if b.opt.Lenient {
				b.skip(start, terr)
				return blockHead{}, nil, start, io.EOF
			}
			return blockHead{}, nil, start, &BlockError{Name: b.label(), Offset: start, Err: terr}
		}
		data := b.scratch[:want]
		stored := binary.LittleEndian.Uint32(data[h.payloadLen:])
		sum := crc32.Update(crc32.ChecksumIEEE(hb), crc32.IEEETable, data[:h.payloadLen])
		if sum != stored {
			if b.opt.Lenient {
				b.skip(start, ErrChecksum)
				continue
			}
			return blockHead{}, nil, start, &BlockError{Name: b.label(), Offset: start, Err: ErrChecksum}
		}
		return h, data[:h.payloadLen], start, nil
	}
}

// --- day traces ------------------------------------------------------------

// TraceReader streams day traces back from the columnar format, one day
// block per ReadDayInto call. A warm reader decodes into a warm
// DayBuffer with zero allocations.
type TraceReader struct {
	b      blockReader
	users  []popsim.UserID
	counts []uint32
}

// NewTraceReaderOpts validates the file header and returns a reader
// with the given failure options (Options{} is strict).
func NewTraceReaderOpts(r io.Reader, opt Options) (*TraceReader, error) {
	t := &TraceReader{}
	if err := t.b.init(r, opt, KindTraces, "trace feed"); err != nil {
		return nil, err
	}
	return t, nil
}

// Skipped returns the number of damaged blocks skipped so far (always 0
// for a strict reader: it fails on the first one instead).
func (t *TraceReader) Skipped() int64 { return t.b.skipped }

// validateDay rejects a block whose day lies outside the simulated
// window [0, timegrid.SimDays), like the CSV readers' day column check.
func validateDay(h blockHead) error {
	if h.day < 0 || h.day >= timegrid.SimDays {
		return fmt.Errorf("day %d outside the simulated window [0,%d)", h.day, timegrid.SimDays)
	}
	return nil
}

// validateTraceHead vets a trace block header: the payload length must
// be consistent with the varint and column section sizes the counts
// imply, so a corrupt header is rejected before any payload allocation.
func validateTraceHead(h blockHead) error {
	if err := validateDay(h); err != nil {
		return err
	}
	nU, nV := uint64(h.countA), uint64(h.countB)
	if nU == 0 && (nV != 0 || h.payloadLen != 0) {
		return fmt.Errorf("%d visits / %d payload bytes with zero users", nV, h.payloadLen)
	}
	min := 2*nU + 8*nV
	max := 2*binary.MaxVarintLen64*nU + 8*nV
	if p := uint64(h.payloadLen); nU > 0 && (p < min || p > max) {
		return fmt.Errorf("payload length %d outside [%d,%d] for %d users / %d visits", p, min, max, nU, nV)
	}
	return nil
}

// ReadDayInto reads the next day block into buf, reusing its arena; the
// traces are materialized with buf.Traces() and stay valid until buf's
// next Reset. It returns io.EOF when the feed is exhausted. Damaged
// blocks fail the read with file:offset context in strict mode and are
// skipped (counted, reported via OnSkip) in lenient mode — the block is
// the columnar unit of damage, so one flipped byte costs the whole day.
func (t *TraceReader) ReadDayInto(buf *mobsim.DayBuffer) (timegrid.SimDay, error) {
	for {
		h, payload, start, err := t.b.nextBlock(validateTraceHead)
		if err != nil {
			return 0, err
		}
		day := timegrid.SimDay(h.day)
		if derr := t.decode(h, payload, buf); derr != nil {
			derr = fmt.Errorf("%w: %v", ErrCorrupt, derr)
			if t.b.opt.Lenient {
				t.b.skip(start, derr)
				continue
			}
			return 0, &BlockError{Name: t.b.label(), Offset: start, Err: derr}
		}
		return day, nil
	}
}

// decode unpacks one CRC-clean block into buf. Any inconsistency —
// malformed varints, counts that do not sum, non-canonical visit words,
// a bin outside the day grid — reports a corrupt block; the value
// checks mirror what the CSV reader's parseTraceRow enforces per row.
func (t *TraceReader) decode(h blockHead, p []byte, buf *mobsim.DayBuffer) error {
	nU, nV := int(h.countA), int(h.countB)
	// The counts are CRC-checked and bounded by the payload length
	// (validateTraceHead), so sizing every store from them up front is
	// safe: a cold store is allocated once, exactly (see grow.Reserve).
	buf.Reset()
	buf.ReserveTraces(nU)
	t.users = grow.Reserve(t.users[:0], nU)
	t.counts = grow.Reserve(t.counts[:0], nU)

	prev := int64(0)
	for i := 0; i < nU; i++ {
		var id int64
		if i == 0 {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("user column: malformed varint at entry 0")
			}
			if u > math.MaxUint32 {
				return fmt.Errorf("user column: ID %d out of range", u)
			}
			id, p = int64(u), p[n:]
		} else {
			d, n := binary.Varint(p)
			if n <= 0 {
				return fmt.Errorf("user column: malformed varint at entry %d", i)
			}
			id, p = prev+d, p[n:]
		}
		if id < 0 || id > math.MaxUint32 {
			return fmt.Errorf("user column: ID %d out of range", id)
		}
		t.users = append(t.users, popsim.UserID(id))
		prev = id
	}

	total := 0
	for i := 0; i < nU; i++ {
		c, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("count column: malformed varint at entry %d", i)
		}
		if c > uint64(nV) || total+int(c) > nV {
			return fmt.Errorf("count column: visit counts exceed block total %d", nV)
		}
		t.counts = append(t.counts, uint32(c))
		total += int(c)
		p = p[n:]
	}
	if total != nV {
		return fmt.Errorf("count column: visit counts sum to %d, header says %d", total, nV)
	}
	if len(p) != nV*8 {
		return fmt.Errorf("visit columns: %d bytes left for %d visits", len(p), nV)
	}

	towers, packs := p[:nV*4], p[nV*4:]
	vi := 0
	for i := 0; i < nU; i++ {
		buf.BeginUser(t.users[i])
		for k := uint32(0); k < t.counts[i]; k++ {
			tw := binary.LittleEndian.Uint32(towers[vi*4:])
			pk := binary.LittleEndian.Uint32(packs[vi*4:])
			v, ok := mobsim.VisitFromWords(tw, pk)
			if !ok {
				return fmt.Errorf("visit columns: non-canonical visit words at visit %d", vi)
			}
			if int(v.Bin()) >= timegrid.BinsPerDay {
				return fmt.Errorf("visit columns: bin %d out of range [0,%d) at visit %d", v.Bin(), timegrid.BinsPerDay, vi)
			}
			buf.Append(v)
			vi++
		}
	}
	return nil
}

// --- per-cell daily KPI records ---------------------------------------------

// KPIReader streams CellDay records back from the columnar format, one
// day block per ReadDayAppend call.
type KPIReader struct {
	b blockReader
}

// NewKPIReaderOpts validates the file header and returns a reader with
// the given failure options (Options{} is strict).
func NewKPIReaderOpts(r io.Reader, opt Options) (*KPIReader, error) {
	k := &KPIReader{}
	if err := k.b.init(r, opt, KindKPI, "KPI feed"); err != nil {
		return nil, err
	}
	return k, nil
}

// Skipped returns the number of damaged blocks skipped so far.
func (k *KPIReader) Skipped() int64 { return k.b.skipped }

// validateKPIHead vets a KPI block header; the metric column count is
// baked into the format, so a file written against a different metric
// schema is rejected here.
func validateKPIHead(h blockHead) error {
	if err := validateDay(h); err != nil {
		return err
	}
	if h.countB != uint32(traffic.NumMetrics) {
		return fmt.Errorf("block has %d metric columns, this build uses %d", h.countB, traffic.NumMetrics)
	}
	nC := uint64(h.countA)
	min := nC + 8*nC*uint64(traffic.NumMetrics)
	max := uint64(binary.MaxVarintLen64)*nC + 8*nC*uint64(traffic.NumMetrics)
	if p := uint64(h.payloadLen); p < min || p > max {
		return fmt.Errorf("payload length %d outside [%d,%d] for %d cells", p, min, max, nC)
	}
	return nil
}

// ReadDayAppend reads the next day block, appending its cell records to
// dst (pass prev[:0] to reuse capacity across days). It returns io.EOF
// when the feed is exhausted; damaged blocks follow the reader's
// strict/lenient mode like TraceReader.ReadDayInto.
func (k *KPIReader) ReadDayAppend(dst []traffic.CellDay) (timegrid.SimDay, []traffic.CellDay, error) {
	base := len(dst)
	for {
		h, payload, start, err := k.b.nextBlock(validateKPIHead)
		if err != nil {
			return 0, dst, err
		}
		day := timegrid.SimDay(h.day)
		out, derr := decodeKPI(h, payload, dst)
		if derr != nil {
			derr = fmt.Errorf("%w: %v", ErrCorrupt, derr)
			if k.b.opt.Lenient {
				dst = dst[:base] // roll back the partial decode
				k.b.skip(start, derr)
				continue
			}
			return 0, dst[:base], &BlockError{Name: k.b.label(), Offset: start, Err: derr}
		}
		return day, out, nil
	}
}

// decodeKPI unpacks one CRC-clean KPI block, appending to dst. dst
// grows once, by the header's cell count (bounded by the payload length
// in validateKPIHead), before the first record is appended.
func decodeKPI(h blockHead, p []byte, dst []traffic.CellDay) ([]traffic.CellDay, error) {
	nC := int(h.countA)
	base := len(dst)
	dst = grow.Reserve(dst, nC)
	prev := int64(0)
	for i := 0; i < nC; i++ {
		var id int64
		if i == 0 {
			c, n := binary.Uvarint(p)
			if n <= 0 {
				return dst, fmt.Errorf("cell column: malformed varint at entry 0")
			}
			if c > math.MaxInt32 {
				return dst, fmt.Errorf("cell column: ID %d out of range", c)
			}
			id, p = int64(c), p[n:]
		} else {
			d, n := binary.Varint(p)
			if n <= 0 {
				return dst, fmt.Errorf("cell column: malformed varint at entry %d", i)
			}
			id, p = prev+d, p[n:]
		}
		if id < 0 || id > math.MaxInt32 {
			return dst, fmt.Errorf("cell column: ID %d out of range", id)
		}
		dst = append(dst, traffic.CellDay{Cell: radio.CellID(id)})
		prev = id
	}
	if len(p) != nC*8*traffic.NumMetrics {
		return dst, fmt.Errorf("metric columns: %d bytes left for %d cells", len(p), nC)
	}
	for m := 0; m < traffic.NumMetrics; m++ {
		col := p[m*nC*8:]
		for i := 0; i < nC; i++ {
			dst[base+i].Values[m] = math.Float64frombits(binary.LittleEndian.Uint64(col[i*8:]))
		}
	}
	return dst, nil
}
