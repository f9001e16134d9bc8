// Package feeds persists and reloads the simulator's data feeds in CSV —
// the interchange format for the three record kinds the paper's pipeline
// consumes: per-user day traces (§2.3 mobility input), per-cell daily
// KPI records (§2.4), and control-plane events (§2.2). A downstream user
// can run the expensive simulation once with cmd/mnosim, persist the
// feeds, and re-run analyses from disk.
//
// Two interchange formats coexist: line-oriented CSV with a fixed
// header (this file — the debuggable default) and the binary columnar
// day-block format of the colfmt subpackage (the fast path at scale;
// PERFORMANCE.md, "Columnar feeds"). DirWriter writes every feed
// directory — for cmd/mnosim, ConvertDir and PartitionDir alike — and
// owns the file names, the format stamp and flushing; OpenDir reads one
// back, auto-detecting each file's format by sniffing magic bytes.
// All writers/readers are streaming and never hold a full feed in
// memory.
//
// Readers run in one of two modes (Options.Lenient; RELIABILITY.md has
// the full contract): strict — the default — fails the replay on the
// first corrupt row with file:line:field context, while lenient skips
// corrupt rows, counts them (Skipped) and reports each through the
// OnSkip hook, so weeks of noisy operator feeds degrade instead of
// aborting. The three CSV readers share one row reader that implements
// this contract; each adds only its row parser and its day grouping.
package feeds

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/devices"
	"repro/internal/feeds/colfmt"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// ErrBadHeader reports a feed file whose header does not match the
// expected schema.
var ErrBadHeader = errors.New("feeds: unexpected header")

// Options configures a feed reader's failure behaviour. It is the one
// strict/lenient contract of the CSV readers here and the columnar
// readers of colfmt, with a CSV row as the unit of damage where colfmt
// has a day block.
type Options = colfmt.Options

// rows is the CSV row reader beneath the three feed readers. It owns
// the contract they share: the header check, file:line error context,
// strict/lenient handling of corrupt rows, the skip count, and a
// one-row push-back for the readers that group rows by day.
type rows[T any] struct {
	r       *csv.Reader
	opt     Options
	parse   func([]string) (T, error)
	skipped int64
	peeked  T
	peek    bool
}

// init reads and checks the header. kind ("trace", "KPI" or "event")
// names the feed in errors when opt.Name is empty.
func (r *rows[T]) init(in io.Reader, header []string, kind string, opt Options, parse func([]string) (T, error)) error {
	r.r = csv.NewReader(in)
	r.r.FieldsPerRecord = len(header)
	if opt.Name == "" {
		opt.Name = kind + " feed"
	}
	r.opt, r.parse = opt, parse
	hdr, err := r.r.Read()
	if err != nil {
		return fmt.Errorf("feeds: reading %s header of %s: %w", kind, opt.Name, err)
	}
	if !slices.Equal(hdr, header) {
		return ErrBadHeader
	}
	return nil
}

// Skipped returns the number of corrupt rows skipped so far (always 0
// for a strict reader: it fails on the first one instead).
func (r *rows[T]) Skipped() int64 { return r.skipped }

// next returns the pushed-back row, if any, else the next row that
// parses; io.EOF at the end of the feed. A corrupt row — malformed CSV
// structure (wrong field count, bad quoting, a truncated final row) or
// a field that fails to parse — fails the read with file:line context
// in strict mode and is skipped (counted, reported via OnSkip) in
// lenient mode. I/O errors are fatal in both modes.
func (r *rows[T]) next() (T, error) {
	if r.peek {
		r.peek = false
		return r.peeked, nil
	}
	var zero T
	for {
		rec, err := r.r.Read()
		if err == io.EOF {
			return zero, io.EOF
		}
		var pe *csv.ParseError
		skippable := err == nil || errors.As(err, &pe)
		if err == nil {
			v, perr := r.parse(rec)
			if perr == nil {
				return v, nil
			}
			err = perr
		}
		line, _ := r.r.FieldPos(0)
		if pe != nil && pe.Line > 0 {
			line = pe.Line
		}
		if !r.opt.Lenient || !skippable {
			return zero, fmt.Errorf("feeds: %s:%d: %w", r.opt.Name, line, err)
		}
		r.skipped++
		if r.opt.OnSkip != nil {
			r.opt.OnSkip(r.opt.Name, line, err)
		}
	}
}

// unread pushes back a row next returned, for the following next call.
func (r *rows[T]) unread(v T) { r.peeked, r.peek = v, true }

// --- day traces ------------------------------------------------------------

// traceHeader is the schema of the trace feed.
var traceHeader = []string{"day", "user", "tower", "bin", "seconds", "at_residence"}

// TraceWriter streams day traces to CSV.
type TraceWriter struct {
	w       *csv.Writer
	started bool
}

// NewTraceWriter returns a writer; the header is emitted on first write.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: csv.NewWriter(w)}
}

// WriteDay appends all visits of one simulated day.
func (t *TraceWriter) WriteDay(day timegrid.SimDay, traces []mobsim.DayTrace) error {
	if !t.started {
		if err := t.w.Write(traceHeader); err != nil {
			return err
		}
		t.started = true
	}
	dayStr := strconv.Itoa(int(day))
	for i := range traces {
		tr := &traces[i]
		userStr := strconv.FormatUint(uint64(tr.User), 10)
		for _, v := range tr.Visits {
			rec := []string{
				dayStr,
				userStr,
				strconv.Itoa(int(v.Tower())),
				strconv.Itoa(int(v.Bin())),
				strconv.Itoa(int(v.Seconds())),
				boolStr(v.AtResidence()),
			}
			if err := t.w.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush flushes buffered records and reports any write error.
func (t *TraceWriter) Flush() error {
	t.w.Flush()
	return t.w.Error()
}

// TraceReader streams day traces back from CSV. Visits of one user-day
// must be contiguous (as TraceWriter emits them).
type TraceReader struct{ rows[traceRow] }

// traceRow is one parsed row of the trace feed.
type traceRow struct {
	day   timegrid.SimDay
	user  popsim.UserID
	visit mobsim.Visit
}

// NewTraceReaderOpts validates the header and returns a reader with the
// given failure options (Options{}: strict).
func NewTraceReaderOpts(r io.Reader, opt Options) (*TraceReader, error) {
	t := new(TraceReader)
	if err := t.init(r, traceHeader, "trace", opt, parseTraceRow); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadDayInto reads the next full day of traces into buf, reusing its
// arena: a warm buffer decodes a day without allocating. The traces are
// materialized with buf.Traces() and stay valid until buf's next Reset.
// It returns io.EOF when the feed is exhausted. Corrupt rows fail the
// read with file:line context in strict mode and are skipped (counted,
// reported via OnSkip) in lenient mode.
func (t *TraceReader) ReadDayInto(buf *mobsim.DayBuffer) (timegrid.SimDay, error) {
	day := timegrid.SimDay(-1)
	var current popsim.UserID
	for {
		row, err := t.next()
		if err == io.EOF && day >= 0 {
			return day, nil
		}
		if err != nil {
			return 0, err
		}
		if day < 0 {
			day = row.day
			buf.Reset()
		} else if row.day != day {
			t.unread(row) // belongs to the next day
			return day, nil
		}
		if buf.Len() == 0 || current != row.user {
			buf.BeginUser(row.user)
			current = row.user
		}
		buf.Append(row.visit)
	}
}

// parseTraceRow decodes one CSV row of the trace feed; its errors name
// the offending column and value.
func parseTraceRow(rec []string) (traceRow, error) {
	day, err := parseDay(rec[0])
	if err != nil {
		return traceRow{}, badField("trace", "day", rec[0], err)
	}
	user, err := strconv.ParseUint(rec[1], 10, 32)
	if err != nil {
		return traceRow{}, badField("trace", "user", rec[1], err)
	}
	tower, err := strconv.Atoi(rec[2])
	if err != nil {
		return traceRow{}, badField("trace", "tower", rec[2], err)
	}
	bin, err := strconv.Atoi(rec[3])
	if err != nil {
		return traceRow{}, badField("trace", "bin", rec[3], err)
	}
	sec, err := strconv.Atoi(rec[4])
	if err != nil {
		return traceRow{}, badField("trace", "seconds", rec[4], err)
	}
	atRes, err := parseBool(rec[5])
	if err != nil {
		return traceRow{}, badField("trace", "at_residence", rec[5], err)
	}
	if bin < 0 || bin >= timegrid.BinsPerDay {
		return traceRow{}, fmt.Errorf("bad trace field bin=%q: out of range [0,%d)", rec[3], timegrid.BinsPerDay)
	}
	// Range-check the packed Visit fields here so a corrupt row surfaces
	// as a row error (skippable in lenient mode) rather than a panic in
	// mobsim.MakeVisit.
	if tower < 0 || int64(tower) > int64(math.MaxInt32) {
		return traceRow{}, fmt.Errorf("bad trace field tower=%q: out of range [0,%d]", rec[2], math.MaxInt32)
	}
	if sec < 0 || sec > mobsim.MaxVisitSeconds {
		return traceRow{}, fmt.Errorf("bad trace field seconds=%q: out of range [0,%d]", rec[4], mobsim.MaxVisitSeconds)
	}
	v := mobsim.MakeVisit(radio.TowerID(tower), timegrid.Bin(bin), int32(sec), atRes)
	return traceRow{day, popsim.UserID(user), v}, nil
}

// badField is the shared shape of a field parse error: it names the
// feed kind, the column and the offending value.
func badField(feed, col, val string, err error) error {
	return fmt.Errorf("bad %s field %s=%q: %w", feed, col, val, err)
}

// --- per-cell daily KPI records ---------------------------------------------

// kpiHeader is the schema of the KPI feed: one row per cell-day with all
// metrics in column order.
var kpiHeader = buildKPIHeader()

func buildKPIHeader() []string {
	h := []string{"day", "cell"}
	for _, m := range traffic.Metrics() {
		h = append(h, "m"+strconv.Itoa(int(m)))
	}
	return h
}

// KPIWriter streams CellDay records to CSV.
type KPIWriter struct {
	w       *csv.Writer
	started bool
}

// NewKPIWriter returns a writer; the header is emitted on first write.
func NewKPIWriter(w io.Writer) *KPIWriter { return &KPIWriter{w: csv.NewWriter(w)} }

// WriteDay appends one day of cell records.
func (k *KPIWriter) WriteDay(day timegrid.SimDay, cells []traffic.CellDay) error {
	if !k.started {
		if err := k.w.Write(kpiHeader); err != nil {
			return err
		}
		k.started = true
	}
	dayStr := strconv.Itoa(int(day))
	rec := make([]string, len(kpiHeader))
	for i := range cells {
		c := &cells[i]
		rec[0] = dayStr
		rec[1] = strconv.Itoa(int(c.Cell))
		for m := 0; m < traffic.NumMetrics; m++ {
			rec[2+m] = strconv.FormatFloat(c.Values[m], 'g', -1, 64)
		}
		if err := k.w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered records and reports any write error.
func (k *KPIWriter) Flush() error {
	k.w.Flush()
	return k.w.Error()
}

// KPIReader streams CellDay records back from CSV.
type KPIReader struct{ rows[kpiRow] }

// kpiRow is one parsed row of the KPI feed.
type kpiRow struct {
	day  timegrid.SimDay
	cell traffic.CellDay
}

// NewKPIReaderOpts validates the header and returns a reader with the
// given failure options (Options{}: strict).
func NewKPIReaderOpts(r io.Reader, opt Options) (*KPIReader, error) {
	k := new(KPIReader)
	if err := k.init(r, kpiHeader, "KPI", opt, parseKPIRow); err != nil {
		return nil, err
	}
	return k, nil
}

// ReadDayAppend reads the next full day of cell records, appending them
// to dst (pass prev[:0] to reuse capacity across days); io.EOF at the
// end. Corrupt rows follow the reader's strict/lenient mode, like
// TraceReader.ReadDayInto.
func (k *KPIReader) ReadDayAppend(dst []traffic.CellDay) (timegrid.SimDay, []traffic.CellDay, error) {
	day, cells := timegrid.SimDay(-1), dst
	for {
		row, err := k.next()
		if err == io.EOF && day >= 0 {
			return day, cells, nil
		}
		if err != nil {
			return 0, nil, err
		}
		if day < 0 {
			day = row.day
		} else if row.day != day {
			k.unread(row)
			return day, cells, nil
		}
		cells = append(cells, row.cell)
	}
}

// parseKPIRow decodes one CSV row of the KPI feed; its errors name the
// offending column and value.
func parseKPIRow(rec []string) (kpiRow, error) {
	day, err := parseDay(rec[0])
	if err != nil {
		return kpiRow{}, badField("KPI", "day", rec[0], err)
	}
	cell, err := strconv.Atoi(rec[1])
	if err != nil {
		return kpiRow{}, badField("KPI", "cell", rec[1], err)
	}
	cd := traffic.CellDay{Cell: radio.CellID(cell)}
	for m := 0; m < traffic.NumMetrics; m++ {
		v, err := strconv.ParseFloat(rec[2+m], 64)
		if err != nil {
			return kpiRow{}, badField("KPI", kpiHeader[2+m], rec[2+m], err)
		}
		cd.Values[m] = v
	}
	return kpiRow{day, cd}, nil
}

// --- control-plane events ----------------------------------------------------

// eventHeader is the schema of the signalling feed.
var eventHeader = []string{"day", "sec", "user", "type", "tower", "sector", "rat", "tac", "mcc", "mnc", "ok"}

// EventWriter streams signalling events to CSV; its Consume method is a
// signaling.EmitFunc, so it can be plugged directly into the generator.
type EventWriter struct {
	w       *csv.Writer
	started bool
	err     error
}

// NewEventWriter returns a writer; the header is emitted on first event.
func NewEventWriter(w io.Writer) *EventWriter { return &EventWriter{w: csv.NewWriter(w)} }

// Consume appends one event; errors are latched and reported by Flush.
func (e *EventWriter) Consume(ev signaling.Event) {
	if e.header(); e.err != nil {
		return
	}
	rec := []string{
		strconv.Itoa(int(ev.Day)),
		strconv.Itoa(int(ev.SecOfDay)),
		strconv.FormatUint(uint64(ev.User), 10),
		strconv.Itoa(int(ev.Type)),
		strconv.Itoa(int(ev.Tower)),
		strconv.Itoa(int(ev.Sector)),
		strconv.Itoa(int(ev.RAT)),
		strconv.FormatUint(uint64(ev.TAC), 10),
		strconv.Itoa(int(ev.PLMN.MCC)),
		strconv.Itoa(int(ev.PLMN.MNC)),
		boolStr(ev.OK),
	}
	e.err = e.w.Write(rec)
}

// header emits the CSV header once, before the first event or at Flush.
func (e *EventWriter) header() {
	if e.err == nil && !e.started {
		e.err = e.w.Write(eventHeader)
		e.started = true
	}
}

// Flush flushes buffered records and reports the first error seen. The
// header is written even when no event was, so an event-less feed still
// reads back as an empty one (a partition shard whose user range saw no
// events, say).
func (e *EventWriter) Flush() error {
	e.header()
	e.w.Flush()
	if e.err != nil {
		return e.err
	}
	return e.w.Error()
}

// EventReader streams events back from CSV.
type EventReader struct{ rows[signaling.Event] }

// NewEventReaderOpts validates the header and returns a reader with the
// given failure options (Options{}: strict).
func NewEventReaderOpts(r io.Reader, opt Options) (*EventReader, error) {
	e := new(EventReader)
	if err := e.init(r, eventHeader, "event", opt, parseEventRow); err != nil {
		return nil, err
	}
	return e, nil
}

// Read returns the next event; io.EOF at the end of the feed. Corrupt
// rows follow the reader's strict/lenient mode.
func (e *EventReader) Read() (signaling.Event, error) { return e.next() }

// parseEventRow decodes one CSV row of the event feed; its errors name
// the offending column and value.
func parseEventRow(rec []string) (signaling.Event, error) {
	day, err := parseDay(rec[0])
	if err != nil {
		return signaling.Event{}, badField("event", "day", rec[0], err)
	}
	ints := make([]int64, 10) // ints[0] unused: the day is parsed above
	for i := 1; i < 10; i++ {
		v, err := strconv.ParseInt(rec[i], 10, 64)
		if err != nil {
			return signaling.Event{}, badField("event", eventHeader[i], rec[i], err)
		}
		ints[i] = v
	}
	ok, err := parseBool(rec[10])
	if err != nil {
		return signaling.Event{}, badField("event", "ok", rec[10], err)
	}
	if t := ints[3]; t < 0 || t >= int64(signaling.NumEventTypes) {
		return signaling.Event{}, fmt.Errorf("bad event field type=%q: out of range [0,%d)", rec[3], signaling.NumEventTypes)
	}
	return signaling.Event{
		Day:      day,
		SecOfDay: int32(ints[1]),
		User:     popsim.UserID(ints[2]),
		Type:     signaling.EventType(ints[3]),
		Tower:    radio.TowerID(ints[4]),
		Sector:   uint8(ints[5]),
		RAT:      radio.RAT(ints[6]),
		TAC:      devices.TAC(ints[7]),
		PLMN:     devices.PLMN{MCC: uint16(ints[8]), MNC: uint16(ints[9])},
		OK:       ok,
	}, nil
}

// --- helpers -----------------------------------------------------------------

// parseDay decodes a day column, rejecting days outside the simulated
// window [0, timegrid.SimDays): every feed row belongs to one simulated
// day, and the readers use a negative day as their "no day yet" state.
func parseDay(s string) (timegrid.SimDay, error) {
	d, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if d < 0 || d >= timegrid.SimDays {
		return 0, fmt.Errorf("outside the simulated window [0,%d)", timegrid.SimDays)
	}
	return timegrid.SimDay(d), nil
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func parseBool(s string) (bool, error) {
	switch s {
	case "1":
		return true, nil
	case "0":
		return false, nil
	default:
		return false, fmt.Errorf("want 0/1, got %q", s)
	}
}
