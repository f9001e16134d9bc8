package stats

import "testing"

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x", 5)
	if s.Len() != 5 || s.Label != "x" {
		t.Fatalf("NewSeries = %+v", s)
	}
	s.Values = []float64{3, 1, 4, 1, 5}
	min, mi := s.Min()
	if min != 1 || mi != 1 {
		t.Errorf("Min = %v at %d", min, mi)
	}
	max, xi := s.Max()
	if max != 5 || xi != 4 {
		t.Errorf("Max = %v at %d", max, xi)
	}
	var empty Series
	if _, i := empty.Min(); i != -1 {
		t.Error("empty Min index should be -1")
	}
}

func TestWeeklyMedians(t *testing.T) {
	s := NewSeries("w", 14)
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	wm := s.WeeklyMedians()
	if wm.Len() != 2 {
		t.Fatalf("weeks = %d", wm.Len())
	}
	if wm.Values[0] != 3 || wm.Values[1] != 10 {
		t.Errorf("weekly medians = %v", wm.Values)
	}
	// Ragged tail week.
	s2 := Series{Label: "r", Values: []float64{1, 1, 1, 1, 1, 1, 1, 9, 11}}
	wm2 := s2.WeeklyMedians()
	if wm2.Len() != 2 || wm2.Values[1] != 10 {
		t.Errorf("ragged weekly medians = %v", wm2.Values)
	}
}

func TestWeeklyMeans(t *testing.T) {
	s := Series{Label: "m", Values: []float64{1, 2, 3, 4, 5, 6, 7, 100}}
	wm := s.WeeklyMeans()
	if wm.Values[0] != 4 || wm.Values[1] != 100 {
		t.Errorf("weekly means = %v", wm.Values)
	}
}

func TestTable(t *testing.T) {
	var tb Table
	tb.Title = "t"
	tb.AddRow("b", []float64{1})
	tb.AddRow("a", []float64{2})
	if r, ok := tb.Row("a"); !ok || r.Values[0] != 2 {
		t.Error("Row lookup failed")
	}
	if _, ok := tb.Row("zz"); ok {
		t.Error("missing row should not be found")
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 {
		t.Error("zero accumulator not neutral")
	}
	for _, x := range []float64{2, 4, 6} {
		a.Add(x)
	}
	if a.Mean() != 4 {
		t.Errorf("accumulator mean = %v, want 4", a.Mean())
	}
}
