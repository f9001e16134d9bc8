package stats

import (
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{0.5, 1.5, 1.6, 9.99, -1, 15} {
		h.Add(x)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 4 {
		t.Errorf("%d observations binned, want the 4 in range", total)
	}
	lo, hi := h.BinBounds(3)
	if lo != 3 || hi != 4 {
		t.Errorf("bin 3 bounds = %v, %v", lo, hi)
	}
}

func TestHistogramEdgeValueGoesToLastBin(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(0.9999999999999999) // rounds to 1.0 in the bin computation
	if h.Counts[2] != 1 {
		t.Errorf("edge value not in the last bin: %v", h.Counts)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	for i := 0; i < 8; i++ {
		h.Add(1.5)
	}
	h.Add(2.5)
	out := h.Render(10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 10)) {
		t.Error("modal bin should be full width")
	}
	if strings.Count(lines[2], "#") >= 10 {
		t.Error("non-modal bin should be shorter")
	}
	if h.Render(0) == "" {
		t.Error("zero width should default, not vanish")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(5, 5, 10) },
		func() { NewHistogram(10, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
