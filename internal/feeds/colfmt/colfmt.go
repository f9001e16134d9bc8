// Package colfmt is the binary columnar day-block feed format: the
// replay interchange that survives the million-subscriber rung where
// CSV parsing (encoding/csv + strconv) becomes the pipeline's last I/O
// bottleneck. A feed is a sequence of per-day tiles; inside a tile each
// record field lives in its own column, and the visit columns are the
// two packed 32-bit words of mobsim.Visit verbatim, so the hot read
// path does arena copies instead of parsing.
//
// # Layout
//
// Every file opens with a 16-byte header:
//
//	bytes 0-3   magic "MNOC"
//	byte  4     format version (currently 1)
//	byte  5     feed kind (1 = traces, 2 = KPI cells)
//	bytes 6-7   reserved (zero)
//	bytes 8-15  user range [lo, hi] (uint32 LE each) covered by a
//	            partition shard; 0,0 means unpartitioned/unspecified
//
// then day blocks, back to back. Each block is:
//
//	bytes 0-3    day (int32 LE)
//	bytes 4-7    countA (uint32 LE): users (traces) / cells (KPI)
//	bytes 8-11   countB (uint32 LE): visits (traces) / metrics (KPI)
//	bytes 12-15  payload length (uint32 LE)
//	...          payload (columnar, see below)
//	last 4 bytes CRC-32 (IEEE) over the block header and payload
//
// A trace payload is four sections: user IDs (first absolute uvarint,
// then zig-zag deltas), per-user visit counts (uvarints — the deltas of
// the per-user offsets), then the tower column (countB × uint32 LE) and
// the packed seconds|bin|residence column (countB × uint32 LE). A KPI
// payload is the cell ID column (absolute uvarint + zig-zag deltas)
// followed by countB metric columns of countA float64 bit patterns
// (uint64 LE) each.
//
// # Failure contract
//
// Readers mirror the strict/lenient semantics of the CSV readers in
// package feeds (RELIABILITY.md has the full contract), with the day
// block taking the role of the row: strict mode fails the replay on the
// first bad block with file:offset context (a *BlockError), lenient
// mode skips the whole block, counts it (Skipped) and reports it
// through OnSkip with the block's starting byte offset. File header
// errors and I/O errors are fatal in both modes; a truncated tail is a
// skippable block in lenient mode.
package colfmt

import (
	"errors"
	"fmt"
)

// Magic identifies a columnar feed file; feeds.OpenDir sniffs it to
// auto-detect the format regardless of file extension.
const Magic = "MNOC"

// Version is the format version this package writes and accepts.
const Version = 1

// Feed kinds, byte 5 of the file header.
const (
	KindTraces = 1
	KindKPI    = 2
)

const (
	fileHeaderSize  = 16
	blockHeaderSize = 16
	// readAhead bounds how far a payload allocation may run ahead of
	// the bytes that have arrived, so a corrupt length field claiming
	// gigabytes fails at EOF after a few MiB of allocation instead of
	// exhausting memory first.
	readAhead = 2 << 20
)

// Typed failure causes, wrapped in *BlockError (or a header error) with
// file:offset context; match with errors.Is.
var (
	ErrBadMagic  = errors.New("bad magic (not a columnar feed)")
	ErrVersion   = errors.New("unsupported format version")
	ErrKind      = errors.New("wrong feed kind")
	ErrTruncated = errors.New("truncated block")
	ErrChecksum  = errors.New("block checksum mismatch")
	ErrCorrupt   = errors.New("corrupt block")
)

// BlockError is a failed day block: the feed's label, the byte offset
// where the block starts, and the cause (one of the sentinel errors
// above, usually wrapped with detail). Its rendering follows the CSV
// readers' file:line convention with the offset in the line position.
type BlockError struct {
	Name   string
	Offset int64
	Err    error
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("colfmt: %s:%d: %v", e.Name, e.Offset, e.Err)
}

func (e *BlockError) Unwrap() error { return e.Err }

// Options configures a reader's failure behaviour. The CSV readers of
// package feeds share it (feeds.Options is this type): there a CSV row
// takes the day block's place as the unit of damage, and its 1-based
// line number the block's byte offset.
type Options struct {
	// Name is the feed's file name (or any label), prefixed to errors
	// and passed to OnSkip. Empty: a generic feed label.
	Name string
	// Lenient makes the reader skip corrupt day blocks — checksum
	// mismatches, malformed columns, out-of-range values, a truncated
	// final block — or corrupt CSV rows — malformed CSV structure (wrong
	// field count, bad quoting, a truncated final row) and rows whose
	// fields fail to parse — instead of failing the replay. Skipped
	// blocks and rows are counted (Skipped) and reported through
	// OnSkip. Header errors and I/O errors are fatal in both modes.
	Lenient bool
	// OnSkip, when non-nil, observes every skip in lenient mode: the
	// feed name, the block's starting byte offset (or the row's line
	// number) and the error.
	OnSkip func(name string, offset int, err error)
}

// label returns the feed name for error context.
func (o *Options) label(fallback string) string {
	if o.Name != "" {
		return o.Name
	}
	return fallback
}
