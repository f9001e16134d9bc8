package feeds

import (
	"io"
	"strings"
	"testing"

	"repro/internal/mobsim"
)

const traceHdr = "day,user,tower,bin,seconds,at_residence\n"

// TestStrictErrorNamesFileLineField pins the strict-mode diagnostic
// contract: the error carries the feed name, the 1-based line of the
// corrupt row, and the offending column and value. Days outside the
// simulated window are bad day fields.
func TestStrictErrorNamesFileLineField(t *testing.T) {
	for _, c := range []struct{ row, col, val string }{
		{"1,2,3,1,oops,1", "seconds", `"oops"`},
		{"500,2,3,1,100,1", "day", `"500"`},
		{"-3,2,3,1,100,1", "day", `"-3"`},
	} {
		feed := traceHdr +
			"1,2,3,1,100,1\n" +
			c.row + "\n"
		r, err := NewTraceReaderOpts(strings.NewReader(feed), Options{Name: "out/traces.csv"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.ReadDayInto(mobsim.NewDayBuffer())
		if err == nil {
			t.Fatalf("corrupt row %q accepted in strict mode", c.row)
		}
		for _, want := range []string{"out/traces.csv:3", c.col, c.val} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("strict error %q lacks %q", err, want)
			}
		}
		if r.Skipped() != 0 {
			t.Errorf("strict reader skipped %d rows", r.Skipped())
		}
	}
}

// TestStrictShortRow pins the field-count check: a short row fails with
// its line number in both the error and the diagnostic.
func TestStrictShortRow(t *testing.T) {
	feed := traceHdr + "1,2,3\n"
	r, err := NewTraceReaderOpts(strings.NewReader(feed), Options{Name: "traces.csv"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadDayInto(mobsim.NewDayBuffer())
	if err == nil {
		t.Fatal("short row accepted in strict mode")
	}
	if !strings.Contains(err.Error(), "traces.csv:2") {
		t.Errorf("short-row error %q lacks traces.csv:2", err)
	}
}

// TestStrictTruncatedFile pins the truncated-transfer case: a file cut
// mid-row fails strictly; earlier complete days replay fine.
func TestStrictTruncatedFile(t *testing.T) {
	feed := traceHdr +
		"0,2,3,1,100,1\n" +
		"1,2,3,1,100,1\n" +
		"1,2,3,1" // cut mid-row, no trailing newline
	r, err := NewTraceReaderOpts(strings.NewReader(feed), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	day, err := r.ReadDayInto(buf)
	if err != nil || day != 0 || len(buf.Traces()) != 1 {
		t.Fatalf("day 0: %v (day=%d, %d traces)", err, day, len(buf.Traces()))
	}
	if _, err = r.ReadDayInto(buf); err == nil {
		t.Fatal("truncated final row accepted in strict mode")
	}
}

// TestLenientSkipsCorruptRows pins the lenient contract end to end:
// structurally broken and unparseable rows are skipped and counted,
// OnSkip observes each with its line number, and the surviving rows
// decode exactly as they would from a clean feed.
func TestLenientSkipsCorruptRows(t *testing.T) {
	feed := traceHdr +
		"0,2,3,1,100,1\n" + // good
		"0,2,3\n" + // short row            (line 3)
		"0,2,3,1,oops,1\n" + // bad seconds  (line 4)
		"0,2,3,99,100,1\n" + // bin range    (line 5)
		"500,2,3,1,100,1\n" + // day window (line 6)
		"-3,2,3,1,100,1\n" + // negative day (line 7)
		"0,7,3,2,50,0\n" // good
	type skipRec struct {
		name string
		line int
	}
	var skips []skipRec
	r, err := NewTraceReaderOpts(strings.NewReader(feed), Options{
		Name:    "traces.csv",
		Lenient: true,
		OnSkip:  func(name string, line int, err error) { skips = append(skips, skipRec{name, line}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	day, err := r.ReadDayInto(buf)
	if err != nil {
		t.Fatalf("lenient read failed: %v", err)
	}
	traces := buf.Traces()
	if day != 0 || len(traces) != 2 {
		t.Fatalf("day=%d traces=%d, want 0/2", day, len(traces))
	}
	if traces[0].User != 2 || traces[1].User != 7 {
		t.Errorf("surviving users: %d, %d", traces[0].User, traces[1].User)
	}
	wantLines := []int{3, 4, 5, 6, 7}
	if r.Skipped() != int64(len(wantLines)) {
		t.Errorf("Skipped() = %d, want %d", r.Skipped(), len(wantLines))
	}
	if len(skips) != len(wantLines) {
		t.Fatalf("OnSkip fired %d times, want %d", len(skips), len(wantLines))
	}
	for i, s := range skips {
		if s.name != "traces.csv" || s.line != wantLines[i] {
			t.Errorf("skip %d = %+v, want traces.csv:%d", i, s, wantLines[i])
		}
	}
	if _, err := r.ReadDayInto(buf); err != io.EOF {
		t.Errorf("after last day: %v, want EOF", err)
	}
}

// TestLenientTruncatedTail pins that a file cut mid-row degrades in
// lenient mode: the partial row is skipped and the feed ends cleanly.
func TestLenientTruncatedTail(t *testing.T) {
	feed := traceHdr +
		"0,2,3,1,100,1\n" +
		"0,2,3,1" // truncated
	r, err := NewTraceReaderOpts(strings.NewReader(feed), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := mobsim.NewDayBuffer()
	day, err := r.ReadDayInto(buf)
	if err != nil || day != 0 || len(buf.Traces()) != 1 {
		t.Fatalf("lenient truncated read: %v (day=%d, %d traces)", err, day, len(buf.Traces()))
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped() = %d, want 1", r.Skipped())
	}
	if _, err := r.ReadDayInto(buf); err != io.EOF {
		t.Errorf("after truncation: %v, want EOF", err)
	}
}

// TestHeaderErrorsFatalInLenientMode pins that lenient mode never
// forgives a wrong schema — only rows degrade.
func TestHeaderErrorsFatalInLenientMode(t *testing.T) {
	if _, err := NewTraceReaderOpts(strings.NewReader("a,b,c\n"), Options{Lenient: true}); err == nil {
		t.Error("lenient reader accepted a bad trace header")
	}
	if _, err := NewKPIReaderOpts(strings.NewReader("x\n"), Options{Lenient: true}); err == nil {
		t.Error("lenient reader accepted a bad KPI header")
	}
	if _, err := NewEventReaderOpts(strings.NewReader("nope\n"), Options{Lenient: true}); err == nil {
		t.Error("lenient reader accepted a bad event header")
	}
}

// TestLenientKPIAndEvents extends the lenient contract to the other two
// feeds.
func TestLenientKPIAndEvents(t *testing.T) {
	kpi := strings.Join(kpiHeader, ",") + "\n" +
		"0,1" + strings.Repeat(",1", len(kpiHeader)-2) + "\n" +
		"0,bad" + strings.Repeat(",1", len(kpiHeader)-2) + "\n" +
		"500,3" + strings.Repeat(",1", len(kpiHeader)-2) + "\n" + // day window
		"-3,3" + strings.Repeat(",1", len(kpiHeader)-2) + "\n" + // negative day
		"0,2" + strings.Repeat(",2", len(kpiHeader)-2) + "\n"
	kr, err := NewKPIReaderOpts(strings.NewReader(kpi), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	day, cells, err := kr.ReadDayAppend(nil)
	if err != nil || day != 0 || len(cells) != 2 {
		t.Fatalf("lenient KPI read: %v (day=%d, %d cells)", err, day, len(cells))
	}
	if kr.Skipped() != 3 {
		t.Errorf("KPI Skipped() = %d, want 3", kr.Skipped())
	}

	ev := strings.Join(eventHeader, ",") + "\n" +
		"1,2,3,0,4,0,2,1,234,10,1\n" +
		"1,2,3,999,4,0,2,1,234,10,1\n" + // event type out of range
		"500,2,3,0,4,0,2,1,234,10,1\n" + // day window
		"-3,2,3,0,4,0,2,1,234,10,1\n" + // negative day
		"1,2,3,1,4,0,2,1,234,10,0\n"
	er, err := NewEventReaderOpts(strings.NewReader(ev), Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, err := er.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient event read: %v", err)
		}
		n++
	}
	if n != 2 || er.Skipped() != 3 {
		t.Errorf("events read=%d skipped=%d, want 2/3", n, er.Skipped())
	}
}

// TestStrictKPIErrorNamesMetricColumn pins that KPI field errors name
// the metric column from the header, not a bare index.
func TestStrictKPIErrorNamesMetricColumn(t *testing.T) {
	kpi := strings.Join(kpiHeader, ",") + "\n" +
		"0,1,nan_but_worse" + strings.Repeat(",1", len(kpiHeader)-3) + "\n"
	kr, err := NewKPIReaderOpts(strings.NewReader(kpi), Options{Name: "kpi.csv"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = kr.ReadDayAppend(nil)
	if err == nil {
		t.Fatal("bad metric accepted")
	}
	for _, want := range []string{"kpi.csv:2", kpiHeader[2], `"nan_but_worse"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("KPI error %q lacks %q", err, want)
		}
	}
}
