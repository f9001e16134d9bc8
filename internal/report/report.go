// Package report renders experiment results (series and tables) as plain
// text: the reproduction's "figures" are printed rows, one per entity,
// one column per week or day, as the harness and examples display them.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// WriteTable renders a stats.Table with aligned columns.
func WriteTable(w io.Writer, t *stats.Table) {
	fmt.Fprintln(w, t.Title)
	labelWidth := 8
	for _, r := range t.Rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}
	if len(t.ColNames) > 0 {
		fmt.Fprintf(w, "  %-*s", labelWidth, "")
		for _, c := range t.ColNames {
			fmt.Fprintf(w, " %8s", c)
		}
		fmt.Fprintln(w)
	}
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-*s", labelWidth, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, " %8.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// Sparkline returns a compact unicode sparkline of the series, handy for
// one-line summaries in examples.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	min, max, err := stats.MinMax(values)
	if err != nil || max == min {
		return strings.Repeat(string(ticks[0]), len(values))
	}
	var b strings.Builder
	for _, v := range values {
		idx := int((v - min) / (max - min) * float64(len(ticks)-1))
		b.WriteRune(ticks[idx])
	}
	return b.String()
}

// CheckMark formats a pass/fail marker.
func CheckMark(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
