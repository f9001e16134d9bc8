package partial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/grow"
	"repro/internal/stream"
	"repro/internal/timegrid"
)

// magic opens every partial file (package doc has the layout).
const magic = "MNOP"

// readChunk bounds how much of a block is requested per read call, so a
// corrupt length field fails at EOF after at most one chunk of
// allocation instead of exhausting memory first.
const readChunk = 1 << 20

// fileTable is the polynomial of the whole-file CRC ReadFile records
// for Merge to compare against. It is not the blocks' IEEE polynomial:
// a block closed by its own IEEE CRC moves an IEEE register the same
// way for every payload of its length, so an IEEE whole-file CRC would
// miss a rewrite whose block CRCs were recomputed.
var fileTable = crc32.MakeTable(crc32.Castagnoli)

// Typed failure causes, wrapped in *BlockError with path:offset
// context; match with errors.Is.
var (
	ErrBadMagic  = errors.New("bad magic (not a partial file)")
	ErrVersion   = errors.New("unsupported partial version")
	ErrTruncated = errors.New("truncated file")
	ErrChecksum  = errors.New("block checksum mismatch")
	ErrCorrupt   = errors.New("corrupt block")
	ErrChanged   = errors.New("file changed since ReadFile verified it")
)

// BlockError is a failed read: the file's path, the byte offset where
// the failing header or block starts (0 for ErrChanged, which concerns
// the whole file), and the cause (one of the sentinel errors above,
// usually wrapped with detail).
type BlockError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("partial: %s:%d: %v", e.Path, e.Offset, e.Err)
}

func (e *BlockError) Unwrap() error { return e.Err }

// WriteFile persists a Partial: the file magic and version, the header
// block, then the day blocks as they are, copied from a Recorder's
// spill or a read partial's file and CRC-checked on the way. A read
// partial's file must still be the one ReadFile verified (see Merge),
// and so must not be path. A Recorder's spill error fails WriteFile
// before path is created. Metrics are stored as raw IEEE-754 bits and
// sketch bins as exact counts, so ReadFile reproduces every value bit
// for bit.
func WriteFile(path string, p *Partial) (err error) {
	if p.Version != Version || p.days > timegrid.SimDays {
		return fmt.Errorf("partial: writing %s: version %d with %d days (this build writes version %d, at most %d days)",
			path, p.Version, p.days, Version, timegrid.SimDays)
	}
	days, err := p.openDays()
	if err != nil {
		return err
	}
	defer days.close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("partial: writing %s: %w", path, cerr)
		}
	}()
	head := append([]byte(magic), Version)
	head = append(head, endBlock(appendHeader(beginBlock(nil), p))...)
	if _, err := f.Write(head); err != nil {
		return fmt.Errorf("partial: writing %s: %w", path, err)
	}
	for range p.days {
		b, err := days.next(false)
		if err != nil {
			return err
		}
		if _, err := f.Write(b); err != nil {
			return fmt.Errorf("partial: writing %s: %w", path, err)
		}
	}
	return days.finish()
}

// beginBlock empties b down to a 4-byte length placeholder.
func beginBlock(b []byte) []byte { return append(b[:0], 0, 0, 0, 0) }

// endBlock fills in b's payload length and appends the CRC-32 of length
// and payload, completing the block.
func endBlock(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func appendHeader(b []byte, p *Partial) []byte {
	for _, v := range [...]uint64{uint64(p.Users), p.Seed, uint64(p.Part), uint64(p.Parts),
		uint64(p.UserLo), uint64(p.UserHi), uint64(p.days), uint64(len(p.Scenario))} {
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
		for _, v := range [...]int64{st.Under, st.Count, int64(stream.QSketchBins)} {
			b = binary.AppendVarint(b, v)
		}
		// Gaps between absolute bin indices skip the zero bins, inside
		// the state's window and around it; the last gap lands exactly
		// on the end.
		last := -1
		for j, c := range st.Bins {
			if c != 0 {
				b = binary.AppendUvarint(b, uint64(st.Lo+j-last-1))
				b = binary.AppendVarint(b, c)
				last = st.Lo + j
			}
		}
		b = binary.AppendUvarint(b, uint64(stream.QSketchBins-last-1))
	}
	b = binary.AppendVarint(b, d.Events)
	return binary.AppendVarint(b, d.Failures)
}

// dayBlockBound is an upper bound on the size of d's block: length and
// CRC, every varint at its widest (a user ID delta fits in 5 bytes), 16
// bytes per user for the two float columns, and two varints per sketch
// bin.
func dayBlockBound(d *Day) int {
	n := 8 + 8*binary.MaxVarintLen64 + len(d.Users)*(5+16)
	for i := range d.Sketches {
		n += 4*binary.MaxVarintLen64 + len(d.Sketches[i].Bins)*2*binary.MaxVarintLen64
	}
	return n
}

// ReadFile verifies a partial written by WriteFile and returns its
// header. Reading is strict: a bad header, a damaged, missing or
// over-long block, or bytes after the last day fail with a *BlockError
// carrying path:offset, and a version-1 (JSON) partial fails with
// ErrVersion. Every day block is decoded, into one reused Day, and
// dropped: the Partial keeps the path, size and a CRC-32C of the whole
// file, and Merge and WriteFile read the days from it again.
func ReadFile(path string) (*Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decode(f, path)
}

// decoder reads blocks into one reused buffer, tracking the offset of
// the next unread byte for error context and the CRC-32C (fileTable)
// of every byte read so far.
type decoder struct {
	r    io.Reader
	path string
	off  int64
	crc  uint32
	buf  []byte
}

// decode runs ReadFile's verifying read over r; path names the input in
// errors.
func decode(r io.Reader, path string) (*Partial, error) {
	d := &decoder{r: r, path: path}
	p := &Partial{Version: Version, path: path}
	if err := d.header(p); err != nil {
		return nil, err
	}
	var day Day
	for range p.days {
		if err := d.block(func(c *cursor) { c.day(&day) }); err != nil {
			return nil, err
		}
	}
	// The header's day count makes a cut at a block boundary detectable;
	// anything after the last day is damage too.
	if off := d.off; d.more() {
		return nil, &BlockError{Path: path, Offset: off, Err: fmt.Errorf("%w: data after the last of %d day blocks", ErrCorrupt, p.days)}
	}
	p.size, p.crc = d.off, d.crc
	return p, nil
}

// read fills b from the stream, keeping off and crc current.
func (d *decoder) read(b []byte) (int, error) {
	n, err := io.ReadFull(d.r, b)
	d.off += int64(n)
	d.crc = crc32.Update(d.crc, fileTable, b[:n])
	return n, err
}

// more reports whether the stream holds another byte (consuming it).
func (d *decoder) more() bool {
	var b [1]byte
	n, _ := d.read(b[:])
	return n > 0
}

// header checks the file magic and version and decodes the header
// block into p.
func (d *decoder) header(p *Partial) error {
	var head [len(magic) + 1]byte
	n, err := d.read(head[:])
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
		return &BlockError{Path: d.path, Offset: 0, Err: err}
	}
	return d.block(func(c *cursor) {
		p.Users, p.Seed = int(c.uvarint()), c.uvarint()
		p.Part, p.Parts = int(c.uvarint()), int(c.uvarint())
		p.UserLo, p.UserHi = c.u32(), c.u32()
		if p.days = int(c.u32()); p.days > timegrid.SimDays {
			c.fail("%d day blocks, more than the %d simulated days", p.days, timegrid.SimDays)
		}
		p.Scenario = string(c.bytes(c.length(1)))
	})
}

// fill extends d.buf to n bytes from the stream, chunked so a corrupt
// length field fails at EOF after bounded allocation.
func (d *decoder) fill(n int) error {
	for len(d.buf) < n {
		k := min(n-len(d.buf), readChunk)
		d.buf = slices.Grow(d.buf, k)
		m, err := d.read(d.buf[len(d.buf) : len(d.buf)+k])
		d.buf = d.buf[:len(d.buf)+m]
		if err != nil {
			return err
		}
	}
	return nil
}

// block reads the next block into d.buf and checks it (see
// checkBlock). A failure carries the offset where the block starts.
func (d *decoder) block(fn func(*cursor)) error {
	start := d.off
	d.buf = d.buf[:0]
	err := d.fill(4)
	if err == nil {
		err = d.fill(8 + int(binary.LittleEndian.Uint32(d.buf)))
	}
	if err != nil {
		err = truncated(err)
	} else {
		err = checkBlock(d.buf, fn)
	}
	if err != nil {
		return &BlockError{Path: d.path, Offset: start, Err: err}
	}
	return nil
}

// checkBlock checks a whole block's CRC and, unless fn is nil, decodes
// its payload with fn, which must consume it exactly.
func checkBlock(b []byte, fn func(*cursor)) error {
	n := len(b) - 4
	if binary.LittleEndian.Uint32(b[n:]) != crc32.ChecksumIEEE(b[:n]) {
		return ErrChecksum
	}
	if fn == nil {
		return nil
	}
	c := cursor{b: b[4:n]}
	fn(&c)
	if c.err == nil && len(c.b) > 0 {
		return fmt.Errorf("%w: %d trailing bytes in block", ErrCorrupt, len(c.b))
	}
	return c.err
}

// dayReader reads a partial's day blocks in order through a verifying
// decoder, CRC-checking each and decoding it on request into one reused
// Day: a Recorder's blocks from its spill, or a read partial's from its
// file, reopened and verified as strictly as ReadFile verified it.
type dayReader struct {
	p   *Partial
	f   *os.File
	dec decoder
	day Day
}

// openDays starts reading p's day blocks: a Recorder's through a
// section reader over its spill (positioned reads, so readers do not
// share a file offset), or a read partial's from its file, whose magic,
// version and header block it checks first. A spill error is returned
// as it is. Close the reader when done.
func (p *Partial) openDays() (*dayReader, error) {
	if p.err != nil {
		return nil, p.err
	}
	r := &dayReader{p: p}
	if p.path == "" {
		// A Recorder that closed no day has no spill, and the reader
		// never reads: its section is empty.
		r.dec = decoder{r: io.NewSectionReader(p.spill, 0, p.size), path: "recorded partial"}
		return r, nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	r.f, r.dec = f, decoder{r: f, path: p.path}
	// The header's values are ReadFile's; finish catches a header that
	// changed since.
	if err := r.dec.header(&Partial{}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// next returns the next whole day block (length, payload, CRC), valid
// until the following call; with decode set it also decodes the day
// into r.day.
func (r *dayReader) next(decode bool) ([]byte, error) {
	var fn func(*cursor)
	if decode {
		fn = func(c *cursor) { c.day(&r.day) }
	}
	err := r.dec.block(fn)
	return r.dec.buf, err
}

// finish ends a read of every day block and closes the reader. The
// input must end there, with the size and CRC-32C that ReadFile saw or
// the Recorder wrote, or the read fails with ErrChanged.
func (r *dayReader) finish() error {
	defer r.close()
	d := &r.dec
	if d.more() || d.off != r.p.size || d.crc != r.p.crc {
		return &BlockError{Path: d.path, Offset: 0, Err: fmt.Errorf("%w: read %d bytes with CRC-32C %08x, ReadFile verified %d bytes with CRC-32C %08x",
			ErrChanged, d.off, d.crc, r.p.size, r.p.crc)}
	}
	return nil
}

// close releases the reader's file, if it has one open.
func (r *dayReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
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

// floats decodes a float64 column into dst's backing array.
func (c *cursor) floats(dst []float64) []float64 {
	n := c.length(8)
	dst = grow.Reserve(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.bytes(8)))
	}
	return dst
}

// day decodes a day payload into d, reusing its columns and sketch
// windows.
func (c *cursor) day(d *Day) {
	d.Day = timegrid.SimDay(c.varint())
	n := c.length(1)
	d.Users = grow.Reserve(d.Users[:0], n)[:n]
	u := int64(0)
	for i := range d.Users {
		if u += c.varint(); u < 0 || u > math.MaxUint32 {
			c.fail("user ID %d out of range", u)
			return
		}
		d.Users[i] = uint32(u)
	}
	d.Entropy, d.Gyration = c.floats(d.Entropy), c.floats(d.Gyration)
	d.Cells = int(c.varint())
	k := c.length(4)
	d.Sketches = grow.Reserve(d.Sketches[:0], k)[:k]
	for m := range d.Sketches {
		c.sketch(&d.Sketches[m])
	}
	d.Events, d.Failures = c.varint(), c.varint()
}

// sketch decodes one sketch into a windowed state: the bins land in a
// dense scratch, and the window from the first to the last stored bin
// is copied out into st.Bins' backing array (see grow.Headroom).
func (c *cursor) sketch(st *stream.QSketchState) {
	st.Lo, st.Bins = 0, st.Bins[:0]
	st.Under, st.Count = c.varint(), c.varint()
	if bins := c.varint(); bins != int64(stream.QSketchBins) {
		c.fail("sketch has %d bins, this build uses %d", bins, stream.QSketchBins)
		return
	}
	var bins [stream.QSketchBins]int64
	lo, hi := stream.QSketchBins, 0
	for j := -1; ; {
		gap := c.uvarint()
		if gap > uint64(stream.QSketchBins-1-j) {
			c.fail("sketch bin index past %d", stream.QSketchBins)
			return
		}
		if j += 1 + int(gap); j == stream.QSketchBins {
			break
		}
		bins[j] = c.varint()
		lo, hi = min(lo, j), j+1
	}
	if lo < hi {
		st.Lo, st.Bins = lo, append(grow.Headroom(st.Bins, hi-lo), bins[lo:hi]...)
	}
}
