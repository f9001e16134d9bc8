package feeds

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/feeds/colfmt"
	"repro/internal/mobsim"
	"repro/internal/signaling"
	"repro/internal/stream"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// Feed file names inside a feed directory, as written by `mnosim -raw`
// (CSV) and `mnosim -raw -format=col` / `feedconv` (columnar). Events
// are always CSV: the event feed is small and line-oriented.
const (
	TraceFeedName    = "traces.csv"
	KPIFeedName      = "kpi.csv"
	EventFeedName    = "events.csv"
	TraceColFeedName = "traces.col"
	KPIColFeedName   = "kpi.col"
)

// Feed directory formats, recorded in the meta sidecar and accepted by
// ConvertDir.
const (
	FormatCSV = "csv"
	FormatCol = "col"
)

// TraceDayReader is the day-granular trace decoding surface FeedSource
// replays from; the CSV TraceReader and the columnar
// colfmt.TraceReader both satisfy it. Reset points a reader at a feed
// of its own format, read from the start, keeping its scratch.
type TraceDayReader interface {
	ReadDayInto(buf *mobsim.DayBuffer) (timegrid.SimDay, error)
	Skipped() int64
	Reset(r io.Reader, opt Options) error
}

// KPIDayReader is the day-granular KPI decoding surface FeedSource
// replays from; the CSV KPIReader and the columnar colfmt.KPIReader
// both satisfy it.
type KPIDayReader interface {
	ReadDayAppend(dst []traffic.CellDay) (timegrid.SimDay, []traffic.CellDay, error)
	Skipped() int64
}

// feedPoolSize bounds the recycled per-day backing stores a FeedSource
// keeps idle. A replay through stream.Prefetch(src, n) and an engine
// holds n+1 stores (2 at the default Buffer of 1), so 8 covers every
// window the commands use; when consumers hold more than this, or
// never call Release, the source simply allocates fresh stores —
// liveness never depends on recycling.
const feedPoolSize = 8

// FeedSource replays persisted feeds — CSV or columnar day blocks
// (colfmt), auto-detected per file — as day batches for the streaming
// engine (stream.Source). The trace feed drives the day
// cursor; per-cell KPI records and control-plane events for the same day
// are attached when their feeds are present. All readers are streaming:
// one day is held, plus at most one parked KPI day (a KPI day read
// ahead of a trace day that has none, kept in the source's own buffer
// until its trace day comes). KPI days are decoded straight into the
// batch's store.
//
// Batches are produced into stores drawn from a stream.BufferPool — the
// simulator's recycling discipline, double-release guard included;
// callers that release each batch when done (stream.Engine.Run does,
// after the merge stage) replay the whole feed with a bounded number of
// live buffers.
type FeedSource struct {
	traces    TraceDayReader
	traceFile *os.File
	kpi       KPIDayReader
	events    *EventReader

	pool *stream.BufferPool

	fi       *fault.Injector
	daysRead int64

	pendingKPIDay timegrid.SimDay
	pendingCells  []traffic.CellDay
	kpiDone       bool

	peekedEvent signaling.Event
	hasPeeked   bool
	eventsDone  bool

	closers []io.Closer
}

// WithFault arms the source with a fault injector (nil: disabled) and
// returns the receiver. Next fires the fault.FeedRead site keyed by the
// 0-based index of the day being read.
func (s *FeedSource) WithFault(fi *fault.Injector) *FeedSource {
	s.fi = fi
	return s
}

// OpenDir opens a feed directory with strict readers; see OpenDirOpts.
func OpenDir(dir string) (*FeedSource, error) {
	return OpenDirOpts(dir, Options{})
}

// OpenDirOpts opens a feed directory: a trace feed (traces.col or
// traces.csv) is required, KPI and event feeds are attached when
// present. The format of each file is auto-detected by sniffing its
// leading bytes for the columnar magic, so extension and content may
// disagree without breaking replay. Each reader gets opt with Name set
// to the file's path, so row/block errors and OnSkip calls carry
// file:line (CSV) or file:offset (columnar) context. Close the source
// when done.
func OpenDirOpts(dir string, opt Options) (*FeedSource, error) {
	s := &FeedSource{pool: stream.NewBufferPool(feedPoolSize), pendingKPIDay: -1}
	var err error
	s.traces, err = openTraces(&s.closers, dir, opt)
	if err == nil {
		s.traceFile = s.closers[0].(*os.File) // the first file opened
		s.kpi, err = openFeed(&s.closers, dir, opt, newKPIDayReader, KPIColFeedName, KPIFeedName)
	}
	if err == nil {
		s.events, err = openFeed(&s.closers, dir, opt, NewEventReaderOpts, EventFeedName)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.kpiDone, s.eventsDone = s.kpi == nil, s.events == nil
	return s, nil
}

// openTraces opens dir's required trace feed (traces.col or
// traces.csv) through openFeed.
func openTraces(closers *[]io.Closer, dir string, opt Options) (TraceDayReader, error) {
	r, err := openFeed(closers, dir, opt, newTraceDayReader, TraceColFeedName, TraceFeedName)
	if err == nil && r == nil {
		err = fmt.Errorf("feeds: opening trace feed: no %s or %s in %s", TraceColFeedName, TraceFeedName, dir)
	}
	return r, err
}

// rewindTraces points the trace reader back at the start of its feed
// under opt (Name set to the file's path), keeping the reader's
// scratch.
func (s *FeedSource) rewindTraces(opt Options) error {
	if _, err := s.traceFile.Seek(0, io.SeekStart); err != nil {
		return err
	}
	opt.Name = s.traceFile.Name()
	return s.traces.Reset(s.traceFile, opt)
}

// openFeed opens the first of names that dir holds, adds the file to
// closers, and decodes it with newR under opt, Name set to the
// file's path. A feed none of whose names opens is absent: the zero R
// and no error.
func openFeed[R any](closers *[]io.Closer, dir string, opt Options, newR func(io.Reader, Options) (R, error), names ...string) (R, error) {
	for _, name := range names {
		opt.Name = filepath.Join(dir, name)
		if f, err := os.Open(opt.Name); err == nil {
			*closers = append(*closers, f)
			return newR(f, opt)
		}
	}
	var absent R
	return absent, nil
}

// newTraceDayReader and newKPIDayReader pick the columnar or the CSV
// decoder by the feed's leading bytes.
func newTraceDayReader(r io.Reader, opt Options) (TraceDayReader, error) {
	r, col := sniffCol(r)
	if col {
		return colfmt.NewTraceReaderOpts(r, opt)
	}
	return NewTraceReaderOpts(r, opt)
}

func newKPIDayReader(r io.Reader, opt Options) (KPIDayReader, error) {
	r, col := sniffCol(r)
	if col {
		return colfmt.NewKPIReaderOpts(r, opt)
	}
	return NewKPIReaderOpts(r, opt)
}

// sniffCol reports whether the feed opens with the columnar magic and
// returns a reader that replays the sniffed bytes before the rest.
func sniffCol(r io.Reader) (io.Reader, bool) {
	head := make([]byte, len(colfmt.Magic))
	n, _ := io.ReadFull(r, head)
	return io.MultiReader(bytes.NewReader(head[:n]), r), n == len(colfmt.Magic) && string(head) == colfmt.Magic
}

// Close releases the underlying files.
func (s *FeedSource) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// Skipped returns the corrupt rows skipped across all attached readers
// (non-zero only in lenient mode).
func (s *FeedSource) Skipped() int64 {
	n := s.traces.Skipped()
	if s.kpi != nil {
		n += s.kpi.Skipped()
	}
	if s.events != nil {
		n += s.events.Skipped()
	}
	return n
}

// Next returns the next day batch; io.EOF when the trace feed ends.
func (s *FeedSource) Next() (stream.DayBatch, error) {
	if err := s.fi.Fire(fault.FeedRead, s.daysRead); err != nil {
		return stream.DayBatch{}, err
	}
	s.daysRead++
	st := s.pool.Draw()
	b := st.Batch()
	day, err := s.traces.ReadDayInto(st.Buf)
	if err != nil {
		b.Release()
		return stream.DayBatch{}, err // io.EOF passes through
	}
	b.Day, b.Traces = day, st.Buf.Traces()
	if st.Cells, err = s.kpiFor(day, st.Cells[:0]); err != nil {
		b.Release()
		return stream.DayBatch{}, err
	}
	if len(st.Cells) > 0 {
		b.Cells = st.Cells
	}
	if st.Events, err = s.eventsFor(day, st.Events[:0]); err != nil {
		b.Release()
		return stream.DayBatch{}, err
	}
	if len(st.Events) > 0 {
		b.Events = st.Events
	}
	return b, nil
}

// kpiFor appends the KPI records of the given day to dst, skipping feed
// days that precede it (e.g. a trace feed opened mid-window). Each KPI
// day is decoded straight into dst: a stale day is rolled back, and only
// a day that belongs to a later trace day is copied out, into the
// source's own parked buffer. A store returns to the pool with its
// batch, so a parked day must not stay in one.
func (s *FeedSource) kpiFor(day timegrid.SimDay, dst []traffic.CellDay) ([]traffic.CellDay, error) {
	base := len(dst)
	for !s.kpiDone {
		if s.pendingKPIDay >= 0 {
			switch {
			case s.pendingKPIDay == day:
				s.pendingKPIDay = -1
				return append(dst, s.pendingCells...), nil
			case s.pendingKPIDay > day:
				return dst, nil // feed is ahead; no records for this day
			}
			s.pendingKPIDay = -1 // stale feed day
		}
		d, cells, err := s.kpi.ReadDayAppend(dst)
		if err == io.EOF {
			s.kpiDone = true
			break
		}
		if err != nil {
			return dst, err
		}
		switch {
		case d == day:
			return cells, nil
		case d < day:
			dst = cells[:base] // stale feed day; keep the grown capacity
		default:
			s.pendingKPIDay, s.pendingCells = d, append(s.pendingCells[:0], cells[base:]...)
			return cells[:base], nil
		}
	}
	return dst, nil
}

// eventsFor appends the events of the given day to dst, preserving feed
// order.
func (s *FeedSource) eventsFor(day timegrid.SimDay, dst []signaling.Event) ([]signaling.Event, error) {
	for !s.eventsDone {
		var ev signaling.Event
		if s.hasPeeked {
			ev, s.hasPeeked = s.peekedEvent, false
		} else {
			e, err := s.events.Read()
			if err == io.EOF {
				s.eventsDone = true
				break
			}
			if err != nil {
				return dst, err
			}
			ev = e
		}
		switch {
		case ev.Day == day:
			dst = append(dst, ev)
		case ev.Day < day:
			// stale feed day; drop
		default:
			s.peekedEvent, s.hasPeeked = ev, true // belongs to a later day
			return dst, nil
		}
	}
	return dst, nil
}
