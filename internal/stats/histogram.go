package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over a known value range, used by
// the reporting tools to show metric distributions (e.g. per-user daily
// gyration before and after the lockdown).
type Histogram struct {
	Min, Max float64
	Counts   []int64
}

// NewHistogram builds a histogram with bins over [min, max). It panics
// on a non-positive bin count or an empty range — both are programming
// errors of the caller.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: non-positive histogram bins")
	}
	if !(max > min) {
		panic("stats: empty histogram range")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, bins)}
}

// Add records an observation; out-of-range values are not counted.
func (h *Histogram) Add(x float64) {
	if x < h.Min || x >= h.Max {
		return
	}
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i >= len(h.Counts) { // float edge
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// BinBounds returns the half-open interval covered by bin i.
func (h *Histogram) BinBounds(i int) (lo, hi float64) {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + float64(i)*w, h.Min + float64(i+1)*w
}

// Render draws the histogram as rows of '#' bars, width chars wide at
// the modal bin; a compact terminal visualization for the report tools.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	var max int64 = 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		lo, hi := h.BinBounds(i)
		bar := int(math.Round(float64(c) / float64(max) * float64(width)))
		fmt.Fprintf(&b, "%8.2f-%-8.2f %-*s %d\n", lo, hi, width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
