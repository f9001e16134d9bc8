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
// PERFORMANCE.md, "Columnar feeds"). ConvertDir translates between
// them, and OpenDir auto-detects the format by sniffing magic bytes.
// All writers/readers are streaming and never hold a full feed in
// memory.
//
// Readers run in one of two modes (Options.Lenient; RELIABILITY.md has
// the full contract): strict — the default — fails the replay on the
// first corrupt row with file:line:field context, while lenient skips
// corrupt rows, counts them (Skipped) and reports each through the
// OnSkip hook, so weeks of noisy operator feeds degrade instead of
// aborting.
package feeds

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/devices"
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

// Options configures a feed reader's failure behaviour.
type Options struct {
	// Name is the feed's file name (or any label), prefixed to row
	// errors and passed to OnSkip. Empty: a generic feed label.
	Name string
	// Lenient makes the reader skip corrupt rows — malformed CSV
	// structure (wrong field count, bad quoting, a truncated final row)
	// and rows whose fields fail to parse — instead of failing the
	// replay. Skipped rows are counted (Skipped) and reported through
	// OnSkip. Header errors and I/O errors are fatal in both modes.
	Lenient bool
	// OnSkip, when non-nil, observes every skipped row in lenient mode:
	// the feed name, the 1-based line number and the row's error.
	OnSkip func(name string, line int, err error)
}

// label returns the feed name for error context.
func (o *Options) label(fallback string) string {
	if o.Name != "" {
		return o.Name
	}
	return fallback
}

// rowError is a corrupt row that lenient mode may skip: a CSV
// structure error or a field parse error. I/O errors are never wrapped
// in it.
func isRowError(err error) bool {
	var pe *csv.ParseError
	return errors.As(err, &pe)
}

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
type TraceReader struct {
	r       *csv.Reader
	peeked  []string
	opt     Options
	skipped int64
}

// NewTraceReader validates the header and returns a strict reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	return NewTraceReaderOpts(r, Options{})
}

// NewTraceReaderOpts is NewTraceReader with explicit failure options.
func NewTraceReaderOpts(r io.Reader, opt Options) (*TraceReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(traceHeader)
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("feeds: reading trace header of %s: %w", opt.label("trace feed"), err)
	}
	if !equalRow(hdr, traceHeader) {
		return nil, ErrBadHeader
	}
	return &TraceReader{r: cr, opt: opt}, nil
}

// Skipped returns the number of corrupt rows skipped so far (always 0
// for a strict reader: it fails on the first one instead).
func (t *TraceReader) Skipped() int64 { return t.skipped }

// line is the 1-based input line of the last record read.
func (t *TraceReader) line() int {
	line, _ := t.r.FieldPos(0)
	return line
}

// skip records a lenient-mode skip of the current row.
func (t *TraceReader) skip(line int, err error) {
	t.skipped++
	if t.opt.OnSkip != nil {
		t.opt.OnSkip(t.opt.label("trace feed"), line, err)
	}
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
		rec, err := t.next()
		if err == io.EOF {
			if day < 0 {
				return 0, io.EOF
			}
			return day, nil
		}
		if err != nil {
			if t.opt.Lenient && isRowError(err) {
				t.skip(csvErrLine(err, t.line()), err)
				continue
			}
			return 0, fmt.Errorf("feeds: %s:%d: %w", t.opt.label("trace feed"), csvErrLine(err, t.line()), err)
		}
		d, v, user, perr := parseTraceRow(rec)
		if perr != nil {
			if t.opt.Lenient {
				t.skip(t.line(), perr)
				continue
			}
			return 0, fmt.Errorf("feeds: %s:%d: %w", t.opt.label("trace feed"), t.line(), perr)
		}
		if day < 0 {
			day = d
			buf.Reset(day)
		}
		if d != day {
			t.peeked = rec // belongs to the next day
			return day, nil
		}
		if buf.Len() == 0 || current != user {
			buf.BeginUser(user)
			current = user
		}
		buf.Append(v)
	}
}

// next returns the pushed-back record, if any, else reads one.
func (t *TraceReader) next() ([]string, error) {
	if t.peeked != nil {
		rec := t.peeked
		t.peeked = nil
		return rec, nil
	}
	return t.r.Read()
}

// csvErrLine extracts the line number carried by a csv.ParseError, or
// falls back to the reader's current position.
func csvErrLine(err error, fallback int) int {
	var pe *csv.ParseError
	if errors.As(err, &pe) && pe.Line > 0 {
		return pe.Line
	}
	return fallback
}

// parseTraceRow decodes one CSV row of the trace feed; its errors name
// the offending column and value.
func parseTraceRow(rec []string) (timegrid.SimDay, mobsim.Visit, popsim.UserID, error) {
	day, err := parseDay(rec[0])
	if err != nil {
		return 0, mobsim.Visit{}, 0, badField("trace", "day", rec[0], err)
	}
	user, err := strconv.ParseUint(rec[1], 10, 32)
	if err != nil {
		return 0, mobsim.Visit{}, 0, badField("trace", "user", rec[1], err)
	}
	tower, err := strconv.Atoi(rec[2])
	if err != nil {
		return 0, mobsim.Visit{}, 0, badField("trace", "tower", rec[2], err)
	}
	bin, err := strconv.Atoi(rec[3])
	if err != nil {
		return 0, mobsim.Visit{}, 0, badField("trace", "bin", rec[3], err)
	}
	sec, err := strconv.Atoi(rec[4])
	if err != nil {
		return 0, mobsim.Visit{}, 0, badField("trace", "seconds", rec[4], err)
	}
	atRes, err := parseBool(rec[5])
	if err != nil {
		return 0, mobsim.Visit{}, 0, badField("trace", "at_residence", rec[5], err)
	}
	if bin < 0 || bin >= timegrid.BinsPerDay {
		return 0, mobsim.Visit{}, 0, fmt.Errorf("bad trace field bin=%q: out of range [0,%d)", rec[3], timegrid.BinsPerDay)
	}
	// Range-check the packed Visit fields here so a corrupt row surfaces
	// as a row error (skippable in lenient mode) rather than a panic in
	// mobsim.MakeVisit.
	if tower < 0 || int64(tower) > int64(math.MaxInt32) {
		return 0, mobsim.Visit{}, 0, fmt.Errorf("bad trace field tower=%q: out of range [0,%d]", rec[2], math.MaxInt32)
	}
	if sec < 0 || sec > mobsim.MaxVisitSeconds {
		return 0, mobsim.Visit{}, 0, fmt.Errorf("bad trace field seconds=%q: out of range [0,%d]", rec[4], mobsim.MaxVisitSeconds)
	}
	v := mobsim.MakeVisit(radio.TowerID(tower), timegrid.Bin(bin), int32(sec), atRes)
	return day, v, popsim.UserID(user), nil
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
type KPIReader struct {
	r       *csv.Reader
	peeked  []string
	opt     Options
	skipped int64
}

// NewKPIReader validates the header and returns a strict reader.
func NewKPIReader(r io.Reader) (*KPIReader, error) {
	return NewKPIReaderOpts(r, Options{})
}

// NewKPIReaderOpts is NewKPIReader with explicit failure options.
func NewKPIReaderOpts(r io.Reader, opt Options) (*KPIReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(kpiHeader)
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("feeds: reading KPI header of %s: %w", opt.label("KPI feed"), err)
	}
	if !equalRow(hdr, kpiHeader) {
		return nil, ErrBadHeader
	}
	return &KPIReader{r: cr, opt: opt}, nil
}

// Skipped returns the number of corrupt rows skipped so far.
func (k *KPIReader) Skipped() int64 { return k.skipped }

func (k *KPIReader) line() int {
	line, _ := k.r.FieldPos(0)
	return line
}

func (k *KPIReader) skip(line int, err error) {
	k.skipped++
	if k.opt.OnSkip != nil {
		k.opt.OnSkip(k.opt.label("KPI feed"), line, err)
	}
}

// ReadDayAppend reads the next full day of cell records, appending them
// to dst (pass prev[:0] to reuse capacity across days); io.EOF at the
// end. Corrupt rows follow the reader's strict/lenient mode, like
// TraceReader.ReadDayInto.
func (k *KPIReader) ReadDayAppend(dst []traffic.CellDay) (timegrid.SimDay, []traffic.CellDay, error) {
	var (
		day   timegrid.SimDay = -1
		cells                 = dst
	)
	for {
		rec, err := k.next()
		if err == io.EOF {
			if day < 0 {
				return 0, nil, io.EOF
			}
			return day, cells, nil
		}
		if err != nil {
			if k.opt.Lenient && isRowError(err) {
				k.skip(csvErrLine(err, k.line()), err)
				continue
			}
			return 0, nil, fmt.Errorf("feeds: %s:%d: %w", k.opt.label("KPI feed"), csvErrLine(err, k.line()), err)
		}
		d, cd, perr := parseKPIRow(rec)
		if perr != nil {
			if k.opt.Lenient {
				k.skip(k.line(), perr)
				continue
			}
			return 0, nil, fmt.Errorf("feeds: %s:%d: %w", k.opt.label("KPI feed"), k.line(), perr)
		}
		if day < 0 {
			day = d
		}
		if d != day {
			k.peeked = rec
			return day, cells, nil
		}
		cells = append(cells, cd)
	}
}

func (k *KPIReader) next() ([]string, error) {
	if k.peeked != nil {
		rec := k.peeked
		k.peeked = nil
		return rec, nil
	}
	return k.r.Read()
}

// parseKPIRow decodes one CSV row of the KPI feed; its errors name the
// offending column and value.
func parseKPIRow(rec []string) (timegrid.SimDay, traffic.CellDay, error) {
	day, err := parseDay(rec[0])
	if err != nil {
		return 0, traffic.CellDay{}, badField("KPI", "day", rec[0], err)
	}
	cell, err := strconv.Atoi(rec[1])
	if err != nil {
		return 0, traffic.CellDay{}, badField("KPI", "cell", rec[1], err)
	}
	cd := traffic.CellDay{Cell: radio.CellID(cell)}
	for m := 0; m < traffic.NumMetrics; m++ {
		v, err := strconv.ParseFloat(rec[2+m], 64)
		if err != nil {
			return 0, traffic.CellDay{}, badField("KPI", kpiHeader[2+m], rec[2+m], err)
		}
		cd.Values[m] = v
	}
	return day, cd, nil
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
	if e.err != nil {
		return
	}
	if !e.started {
		if err := e.w.Write(eventHeader); err != nil {
			e.err = err
			return
		}
		e.started = true
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

// ensureHeader emits the CSV header even when no event has been
// written, so an event-less file still parses as an empty feed (the
// partitioner needs this for shards whose user range saw no events).
func (e *EventWriter) ensureHeader() {
	if e.err == nil && !e.started {
		e.err = e.w.Write(eventHeader)
		e.started = true
	}
}

// Flush flushes buffered records and reports the first error seen.
func (e *EventWriter) Flush() error {
	e.w.Flush()
	if e.err != nil {
		return e.err
	}
	return e.w.Error()
}

// EventReader streams events back from CSV.
type EventReader struct {
	r       *csv.Reader
	opt     Options
	skipped int64
}

// NewEventReader validates the header and returns a strict reader.
func NewEventReader(r io.Reader) (*EventReader, error) {
	return NewEventReaderOpts(r, Options{})
}

// NewEventReaderOpts is NewEventReader with explicit failure options.
func NewEventReaderOpts(r io.Reader, opt Options) (*EventReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(eventHeader)
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("feeds: reading event header of %s: %w", opt.label("event feed"), err)
	}
	if !equalRow(hdr, eventHeader) {
		return nil, ErrBadHeader
	}
	return &EventReader{r: cr, opt: opt}, nil
}

// Skipped returns the number of corrupt rows skipped so far.
func (e *EventReader) Skipped() int64 { return e.skipped }

func (e *EventReader) line() int {
	line, _ := e.r.FieldPos(0)
	return line
}

func (e *EventReader) skip(line int, err error) {
	e.skipped++
	if e.opt.OnSkip != nil {
		e.opt.OnSkip(e.opt.label("event feed"), line, err)
	}
}

// Read returns the next event; io.EOF at the end of the feed. Corrupt
// rows follow the reader's strict/lenient mode.
func (e *EventReader) Read() (signaling.Event, error) {
	for {
		rec, err := e.r.Read()
		if err == io.EOF {
			return signaling.Event{}, io.EOF
		}
		if err != nil {
			if e.opt.Lenient && isRowError(err) {
				e.skip(csvErrLine(err, e.line()), err)
				continue
			}
			return signaling.Event{}, fmt.Errorf("feeds: %s:%d: %w", e.opt.label("event feed"), csvErrLine(err, e.line()), err)
		}
		ev, perr := parseEventRow(rec)
		if perr != nil {
			if e.opt.Lenient {
				e.skip(e.line(), perr)
				continue
			}
			return signaling.Event{}, fmt.Errorf("feeds: %s:%d: %w", e.opt.label("event feed"), e.line(), perr)
		}
		return ev, nil
	}
}

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

func equalRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
