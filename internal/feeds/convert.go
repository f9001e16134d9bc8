package feeds

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/feeds/colfmt"
	"repro/internal/mobsim"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// traceDayWriter and kpiDayWriter are the day-granular encoding
// surfaces shared by the CSV and columnar writers.
type traceDayWriter interface {
	WriteDay(day timegrid.SimDay, traces []mobsim.DayTrace) error
	Flush() error
}

type kpiDayWriter interface {
	WriteDay(day timegrid.SimDay, cells []traffic.CellDay) error
	Flush() error
}

// DirWriter writes a feed directory in one format. It owns every
// decision the format implies: the trace and KPI file names and
// encoders, the meta sidecar's Format and FormatVersion, and flushing
// every encoder before closing the files, so a late write error is
// reported, not lost.
type DirWriter struct {
	dir, format string
	traces      traceDayWriter
	kpi         kpiDayWriter
	events      interface{ Flush() error }
	files       []*os.File
}

// CreateDir creates dir (with any missing parents) and its trace feed
// in format (FormatCSV or FormatCol), plus its KPI feed when kpi is set.
// The caller must Close the writer.
func CreateDir(dir, format string, kpi bool) (*DirWriter, error) {
	col := format == FormatCol
	if !col && format != FormatCSV {
		return nil, fmt.Errorf("feeds: unknown feed format %q (want %q or %q)", format, FormatCSV, FormatCol)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &DirWriter{dir: dir, format: format}
	traceName, kpiName := TraceFeedName, KPIFeedName
	if col {
		traceName, kpiName = TraceColFeedName, KPIColFeedName
	}
	tf, err := w.create(traceName)
	if err != nil {
		return nil, err
	}
	if col {
		w.traces = colfmt.NewTraceWriter(tf)
	} else {
		w.traces = NewTraceWriter(tf)
	}
	if kpi {
		kf, err := w.create(kpiName)
		if err != nil {
			w.Close()
			return nil, err
		}
		if col {
			w.kpi = colfmt.NewKPIWriter(kf)
		} else {
			w.kpi = NewKPIWriter(kf)
		}
	}
	return w, nil
}

// create opens a file in the directory for Close to close.
func (w *DirWriter) create(name string) (*os.File, error) {
	f, err := os.Create(filepath.Join(w.dir, name))
	if err == nil {
		w.files = append(w.files, f)
	}
	return f, err
}

// WriteTraces appends one day to the trace feed.
func (w *DirWriter) WriteTraces(day timegrid.SimDay, traces []mobsim.DayTrace) error {
	return w.traces.WriteDay(day, traces)
}

// WriteKPI appends one day to the KPI feed CreateDir was asked for.
func (w *DirWriter) WriteKPI(day timegrid.SimDay, cells []traffic.CellDay) error {
	return w.kpi.WriteDay(day, cells)
}

// Events creates the event feed, which is CSV in every format.
func (w *DirWriter) Events() (*EventWriter, error) {
	f, err := w.create(EventFeedName)
	if err != nil {
		return nil, err
	}
	ew := NewEventWriter(f)
	w.events = ew
	return ew, nil
}

// WriteMeta writes the provenance sidecar, stamped with the format.
func (w *DirWriter) WriteMeta(m Meta) error {
	m.Format, m.FormatVersion = w.format, 0
	if w.format == FormatCol {
		m.FormatVersion = colfmt.Version
	}
	return WriteMeta(w.dir, m)
}

// Close flushes every encoder, then closes every file, and reports the
// errors of both. Closing again is a no-op, so error paths may defer it.
func (w *DirWriter) Close() error {
	var errs []error
	for _, enc := range []interface{ Flush() error }{w.traces, w.kpi, w.events} {
		if enc != nil {
			errs = append(errs, enc.Flush())
		}
	}
	for _, f := range w.files {
		errs = append(errs, f.Close())
	}
	w.traces, w.kpi, w.events, w.files = nil, nil, nil, nil
	return errors.Join(errs...)
}

// ConvertDir re-encodes the feed directory in into out using the given
// format (FormatCSV or FormatCol). The input format of each file is
// auto-detected, so the call converts in either direction (or
// re-encodes in place semantics aside). Trace and KPI feeds are
// re-encoded day by day with bounded memory; the event feed (always
// CSV) and nothing else is copied verbatim; the meta sidecar, when
// present, is carried over with Format/FormatVersion updated. The
// conversion is lossless: converting CSV → col → CSV reproduces the
// original trace and KPI files byte for byte.
//
// opt applies to the *input* readers (strict by default; lenient
// conversion salvages damaged feeds, dropping what cannot be decoded).
func ConvertDir(in, out, format string, opt Options) error {
	tr, tc, err := openTraceFeed(in, opt)
	if err != nil {
		return err
	}
	defer tc.Close()
	kr, kc, err := openKPIFeed(in, opt) // optional
	if err != nil {
		return err
	}
	if kr != nil {
		defer kc.Close()
	}
	w, err := CreateDir(out, format, kr != nil)
	if err != nil {
		return err
	}
	defer w.Close() // error paths; the success path checks Close below

	buf := mobsim.NewDayBuffer()
	for {
		day, err := tr.ReadDayInto(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := w.WriteTraces(day, buf.Traces()); err != nil {
			return err
		}
	}
	var cells []traffic.CellDay
	for kr != nil {
		day, out, err := kr.ReadDayAppend(cells[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		cells = out
		if err := w.WriteKPI(day, cells); err != nil {
			return err
		}
	}
	if src, err := os.Open(filepath.Join(in, EventFeedName)); err == nil { // optional, copied verbatim
		defer src.Close()
		dst, err := w.create(EventFeedName)
		if err != nil {
			return err
		}
		if _, err := io.Copy(dst, src); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	// Meta sidecar (optional, format columns refreshed).
	m, ok, err := ReadMeta(in)
	if err != nil || !ok {
		return err
	}
	return w.WriteMeta(m)
}
