package partial

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/stream"
	"repro/internal/timegrid"
)

// magic opens every partial file (package doc has the layout).
const magic = "MNOP"

// readChunk bounds how much of a block is requested per read call, so a
// corrupt length field fails at EOF after at most one chunk of
// allocation instead of exhausting memory first.
const readChunk = 1 << 20

// sketchBins is this build's quantile-sketch resolution; a sketch
// written with any other bin count is rejected.
var sketchBins = len(stream.NewQSketch().State().Bins)

// Typed failure causes, wrapped in *BlockError with path:offset
// context; match with errors.Is.
var (
	ErrBadMagic  = errors.New("bad magic (not a partial file)")
	ErrVersion   = errors.New("unsupported partial version")
	ErrTruncated = errors.New("truncated file")
	ErrChecksum  = errors.New("block checksum mismatch")
	ErrCorrupt   = errors.New("corrupt block")
)

// BlockError is a failed read: the file's path, the byte offset where
// the failing header or block starts, and the cause (one of the
// sentinel errors above, usually wrapped with detail).
type BlockError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("partial: %s:%d: %v", e.Path, e.Offset, e.Err)
}

func (e *BlockError) Unwrap() error { return e.Err }

// WriteFile persists a Partial as a header block and one block per day.
// Metrics are stored as raw IEEE-754 bits and sketch bins as exact
// counts, so ReadFile reproduces every value bit for bit.
func WriteFile(path string, p *Partial) error {
	if p.Version != Version || len(p.Days) > timegrid.SimDays {
		return fmt.Errorf("partial: writing %s: version %d with %d days (this build writes version %d, at most %d days)",
			path, p.Version, len(p.Days), Version, timegrid.SimDays)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	w.WriteString(magic)
	w.WriteByte(Version)
	blk := writeBlock(w, appendHeader(beginBlock(nil), p))
	for i := range p.Days {
		blk = writeBlock(w, appendDay(beginBlock(blk), &p.Days[i]))
	}
	if err := w.Flush(); err != nil { // bufio.Writer errors are sticky
		f.Close()
		return fmt.Errorf("partial: writing %s: %w", path, err)
	}
	return f.Close()
}

// beginBlock empties b down to a 4-byte length placeholder.
func beginBlock(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// writeBlock fills in b's payload length, appends the CRC-32 of length
// and payload, and writes the block; it returns b for reuse.
func writeBlock(w *bufio.Writer, b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	w.Write(b)
	return b
}

func appendHeader(b []byte, p *Partial) []byte {
	for _, v := range [...]uint64{uint64(p.Users), p.Seed, uint64(p.Part), uint64(p.Parts),
		uint64(p.UserLo), uint64(p.UserHi), uint64(len(p.Days)), uint64(len(p.Scenario))} {
		b = binary.AppendUvarint(b, v)
	}
	return append(b, p.Scenario...)
}

func appendDay(b []byte, d *Day) []byte {
	b = binary.AppendVarint(b, int64(d.Day))
	b = binary.AppendUvarint(b, uint64(len(d.Users)))
	prev := int64(0)
	for _, u := range d.Users {
		b = binary.AppendVarint(b, int64(u)-prev)
		prev = int64(u)
	}
	for _, col := range [...][]float64{d.Entropy, d.Gyration} {
		b = binary.AppendUvarint(b, uint64(len(col)))
		for _, x := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	b = binary.AppendVarint(b, int64(d.Cells))
	b = binary.AppendUvarint(b, uint64(len(d.Sketches)))
	for i := range d.Sketches {
		st := &d.Sketches[i]
		for _, v := range [...]int64{st.Under, st.Count, int64(len(st.Bins))} {
			b = binary.AppendVarint(b, v)
		}
		// Gaps skip the zero bins; the last gap lands exactly on the end.
		last := -1
		for j, c := range st.Bins {
			if c != 0 {
				b = binary.AppendUvarint(b, uint64(j-last-1))
				b = binary.AppendVarint(b, c)
				last = j
			}
		}
		b = binary.AppendUvarint(b, uint64(len(st.Bins)-last-1))
	}
	b = binary.AppendVarint(b, d.Events)
	return binary.AppendVarint(b, d.Failures)
}

// ReadFile loads a Partial written by WriteFile. Reading is strict: a
// bad header, a damaged, missing or over-long block, or bytes after the
// last day fail with a *BlockError carrying path:offset. A version-1
// (JSON) partial fails with ErrVersion.
func ReadFile(path string) (*Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decode(bufio.NewReaderSize(f, 1<<16), path)
}

// decoder reads blocks into one reused buffer, tracking the offset of
// the next unread byte for error context.
type decoder struct {
	r    io.Reader
	path string
	off  int64
	buf  []byte
}

func decode(r io.Reader, path string) (*Partial, error) {
	d := &decoder{r: r, path: path}
	var head [len(magic) + 1]byte
	n, err := io.ReadFull(r, head[:])
	d.off = int64(n)
	switch {
	case bytes.HasPrefix(bytes.TrimLeft(head[:n], " \t\r\n"), []byte("{")):
		err = fmt.Errorf("%w 1 (JSON); this build reads version %d, so re-run mnostream -partial", ErrVersion, Version)
	case err != nil:
		err = fmt.Errorf("file header: %w", truncated(err))
	case string(head[:len(magic)]) != magic:
		err = ErrBadMagic
	case head[len(magic)] != Version:
		err = fmt.Errorf("%w %d (this build reads %d)", ErrVersion, head[len(magic)], Version)
	}
	if err != nil {
		return nil, &BlockError{Path: path, Offset: 0, Err: err}
	}

	p := &Partial{Version: Version}
	days := 0
	err = d.block(func(c *cursor) {
		p.Users, p.Seed = int(c.uvarint()), c.uvarint()
		p.Part, p.Parts = int(c.uvarint()), int(c.uvarint())
		p.UserLo, p.UserHi = c.u32(), c.u32()
		if days = int(c.u32()); days > timegrid.SimDays {
			c.fail("%d day blocks, more than the %d simulated days", days, timegrid.SimDays)
		}
		p.Scenario = string(c.bytes(c.length(1)))
	})
	if err != nil {
		return nil, err
	}
	p.Days = make([]Day, days)
	for i := range p.Days {
		if err := d.block(func(c *cursor) { c.day(&p.Days[i]) }); err != nil {
			return nil, err
		}
	}
	// The header's day count makes a cut at a block boundary detectable;
	// anything after the last day is damage too.
	if n, _ := io.ReadFull(r, head[:1]); n > 0 {
		return nil, &BlockError{Path: path, Offset: d.off, Err: fmt.Errorf("%w: data after the last of %d day blocks", ErrCorrupt, days)}
	}
	return p, nil
}

// fill extends d.buf to n bytes from the stream, chunked so a corrupt
// length field fails at EOF after bounded allocation.
func (d *decoder) fill(n int) error {
	for len(d.buf) < n {
		k := min(n-len(d.buf), readChunk)
		d.buf = slices.Grow(d.buf, k)
		m, err := io.ReadFull(d.r, d.buf[len(d.buf):len(d.buf)+k])
		d.buf = d.buf[:len(d.buf)+m]
		d.off += int64(m)
		if err != nil {
			return err
		}
	}
	return nil
}

// block reads the next block, checks its CRC and decodes its payload
// with fn, which must consume it exactly. A failure carries the offset
// where the block starts.
func (d *decoder) block(fn func(*cursor)) error {
	start := d.off
	d.buf = d.buf[:0]
	err := d.fill(4)
	if err == nil {
		err = d.fill(8 + int(binary.LittleEndian.Uint32(d.buf)))
	}
	n := len(d.buf) - 4
	switch {
	case err != nil:
		err = truncated(err)
	case binary.LittleEndian.Uint32(d.buf[n:]) != crc32.ChecksumIEEE(d.buf[:n]):
		err = ErrChecksum
	default:
		c := cursor{b: d.buf[4:n]}
		fn(&c)
		if err = c.err; err == nil && len(c.b) > 0 {
			err = fmt.Errorf("%w: %d trailing bytes in block", ErrCorrupt, len(c.b))
		}
	}
	if err != nil {
		return &BlockError{Path: d.path, Offset: start, Err: err}
	}
	return nil
}

// truncated maps an early end of input to ErrTruncated; other read
// errors pass through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// cursor decodes one block payload. The first failure sticks and empties
// the cursor, so later reads return zeros and the caller checks once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, a...))
	}
	c.b = nil
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// varint reads a zig-zag signed varint (binary.AppendVarint's encoding).
func (c *cursor) varint() int64 {
	v := c.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (c *cursor) u32() uint32 {
	v := c.uvarint()
	if v > math.MaxUint32 {
		c.fail("%d overflows uint32", v)
	}
	return uint32(v)
}

// length reads a count of elements taking at least per payload bytes
// each, and bounds it by the bytes left before anything is allocated.
func (c *cursor) length(per int) int {
	n := c.uvarint()
	if n > uint64(len(c.b)/per) {
		c.fail("length %d exceeds the block", n)
		return 0
	}
	return int(n)
}

func (c *cursor) bytes(n int) []byte {
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

func (c *cursor) floats() []float64 {
	xs := make([]float64, c.length(8))
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.bytes(8)))
	}
	return xs
}

func (c *cursor) day(d *Day) {
	d.Day = timegrid.SimDay(c.varint())
	d.Users = make([]uint32, c.length(1))
	u := int64(0)
	for i := range d.Users {
		if u += c.varint(); u < 0 || u > math.MaxUint32 {
			c.fail("user ID %d out of range", u)
			return
		}
		d.Users[i] = uint32(u)
	}
	d.Entropy, d.Gyration = c.floats(), c.floats()
	d.Cells = int(c.varint())
	if k := c.length(4); k > 0 {
		d.Sketches = make([]stream.QSketchState, k)
		for m := range d.Sketches {
			c.sketch(&d.Sketches[m])
		}
	}
	d.Events, d.Failures = c.varint(), c.varint()
}

func (c *cursor) sketch(st *stream.QSketchState) {
	st.Under, st.Count = c.varint(), c.varint()
	if bins := c.varint(); bins != int64(sketchBins) {
		c.fail("sketch has %d bins, this build uses %d", bins, sketchBins)
		return
	}
	st.Bins = make([]int64, sketchBins)
	for j := -1; ; {
		gap := c.uvarint()
		if gap > uint64(sketchBins-1-j) {
			c.fail("sketch bin index past %d", sketchBins)
			return
		}
		if j += 1 + int(gap); j == sketchBins {
			return
		}
		st.Bins[j] = c.varint()
	}
}
