package feeds

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

var (
	fixOnce sync.Once
	fixPop  *popsim.Population
	fixSim  *mobsim.Simulator
	fixEng  *traffic.Engine
)

func fixture(t *testing.T) (*popsim.Population, *mobsim.Simulator, *traffic.Engine) {
	t.Helper()
	fixOnce.Do(func() {
		m := census.BuildUK(1)
		topo := radio.Build(m, radio.DefaultConfig(), 1)
		fixPop = popsim.Synthesize(m, topo, popsim.Config{Seed: 1, TargetUsers: 600})
		fixSim = mobsim.New(fixPop, pandemic.Default(), 1)
		fixEng = traffic.NewEngine(fixPop, pandemic.Default(), traffic.DefaultParams(), 1)
	})
	return fixPop, fixSim, fixEng
}

func TestTraceRoundTrip(t *testing.T) {
	_, sim, _ := fixture(t)
	days := []timegrid.SimDay{3, 4}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	want := map[timegrid.SimDay][]mobsim.DayTrace{}
	for _, d := range days {
		traces := sim.DayInto(mobsim.NewDayBuffer(), d)
		want[d] = traces
		if err := w.WriteDay(d, traces); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rbuf := mobsim.NewDayBuffer()
	for _, d := range days {
		day, err := r.ReadDayInto(rbuf)
		if err != nil {
			t.Fatal(err)
		}
		traces := rbuf.Traces()
		if day != d {
			t.Fatalf("day = %d, want %d", day, d)
		}
		if len(traces) != len(want[d]) {
			t.Fatalf("day %d: %d traces, want %d", d, len(traces), len(want[d]))
		}
		for i := range traces {
			if traces[i].User != want[d][i].User {
				t.Fatalf("trace %d user mismatch", i)
			}
			if len(traces[i].Visits) != len(want[d][i].Visits) {
				t.Fatalf("trace %d visit count mismatch", i)
			}
			for j := range traces[i].Visits {
				if traces[i].Visits[j] != want[d][i].Visits[j] {
					t.Fatalf("trace %d visit %d mismatch: %+v vs %+v",
						i, j, traces[i].Visits[j], want[d][i].Visits[j])
				}
			}
		}
	}
	if _, err := r.ReadDayInto(rbuf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestKPIRoundTrip(t *testing.T) {
	_, sim, eng := fixture(t)
	var buf bytes.Buffer
	w := NewKPIWriter(&buf)
	days := []timegrid.SimDay{30, 31}
	want := map[timegrid.SimDay][]traffic.CellDay{}
	for _, d := range days {
		cells := eng.DayAppend(nil, d, sim.DayInto(mobsim.NewDayBuffer(), d))
		want[d] = cells
		if err := w.WriteDay(d, cells); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewKPIReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range days {
		day, cells, err := r.ReadDayAppend(nil)
		if err != nil {
			t.Fatal(err)
		}
		if day != d {
			t.Fatalf("day = %d, want %d", day, d)
		}
		if len(cells) != len(want[d]) {
			t.Fatalf("day %d: %d cells, want %d", d, len(cells), len(want[d]))
		}
		for i := range cells {
			if cells[i].Cell != want[d][i].Cell {
				t.Fatalf("cell %d ID mismatch", i)
			}
			for m := 0; m < traffic.NumMetrics; m++ {
				if cells[i].Values[m] != want[d][i].Values[m] {
					t.Fatalf("cell %d metric %d: %v vs %v",
						i, m, cells[i].Values[m], want[d][i].Values[m])
				}
			}
		}
	}
	if _, _, err := r.ReadDayAppend(nil); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestEventRoundTrip(t *testing.T) {
	pop, sim, _ := fixture(t)
	gen := signaling.NewGenerator(pop, 1)
	day := timegrid.SimDay(10)
	var buf bytes.Buffer
	w := NewEventWriter(&buf)
	var want []signaling.Event
	gen.Day(day, sim.DayInto(mobsim.NewDayBuffer(), day), func(e signaling.Event) {
		want = append(want, e)
		w.Consume(e)
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewEventReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ev, err := r.Read()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d events, wrote %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev != want[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, ev, want[i])
		}
	}
}

func TestBadHeaders(t *testing.T) {
	if _, err := NewTraceReader(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("bad trace header accepted")
	}
	if _, err := NewKPIReader(strings.NewReader("x\n")); err == nil {
		t.Error("bad KPI header accepted")
	}
	if _, err := NewEventReader(strings.NewReader("nope,nope\n")); err == nil {
		t.Error("bad event header accepted")
	}
	if _, err := NewTraceReader(strings.NewReader("")); err == nil {
		t.Error("empty trace feed accepted")
	}
}

func TestMalformedRows(t *testing.T) {
	// Each row is corrupt in one field; the day column must lie in the
	// simulated window [0, timegrid.SimDays). A rejected row is an error,
	// never a clean io.EOF.
	for _, row := range []string{
		"1,2,3,99,100,1",    // bin out of range
		"1,2,3,1,100,maybe", // bad bool
		"500,2,3,1,100,1",   // day past the window
		"-3,2,3,1,100,1",    // negative day
	} {
		r, err := NewTraceReader(strings.NewReader("day,user,tower,bin,seconds,at_residence\n" + row + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadDayInto(mobsim.NewDayBuffer()); err == nil || err == io.EOF {
			t.Errorf("trace row %q: got %v, want a row error", row, err)
		}
	}

	for _, day := range []string{"notanumber", "500", "-3"} {
		kpi := strings.Join(kpiHeader, ",") + "\n" + day + strings.Repeat(",0", len(kpiHeader)-1) + "\n"
		kr, err := NewKPIReader(strings.NewReader(kpi))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := kr.ReadDayAppend(nil); err == nil || err == io.EOF {
			t.Errorf("KPI day %q: got %v, want a row error", day, err)
		}
	}

	for _, row := range []string{
		"1,2,3,999,4,0,2,1,234,10,1", // event type out of range
		"500,2,3,0,4,0,2,1,234,10,1", // day past the window
		"-3,2,3,0,4,0,2,1,234,10,1",  // negative day
	} {
		er, _ := NewEventReader(strings.NewReader(strings.Join(eventHeader, ",") + "\n" + row + "\n"))
		if _, err := er.Read(); err == nil || err == io.EOF {
			t.Errorf("event row %q: got %v, want a row error", row, err)
		}
	}
}

func TestEmptyFeeds(t *testing.T) {
	// A writer that never wrote produces an empty file (no header); the
	// readers reject it, which is the correct signal for "no data".
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("unwritten feed should be empty")
	}
	// Header only: reader yields EOF immediately.
	var buf2 bytes.Buffer
	w2 := NewTraceWriter(&buf2)
	if err := w2.WriteDay(0, nil); err != nil {
		t.Fatal(err)
	}
	w2.Flush()
	r, err := NewTraceReader(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadDayInto(mobsim.NewDayBuffer()); err != io.EOF {
		t.Errorf("header-only feed: got %v, want EOF", err)
	}
}
