package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestWriteTable(t *testing.T) {
	tb := stats.Table{
		Title:    "demo",
		ColNames: []string{"w9", "w10"},
	}
	tb.AddRow("UK", []float64{0, -12.345})
	tb.AddRow("Inner London", []float64{1.5, -41})
	var b strings.Builder
	WriteTable(&b, &tb)
	out := b.String()
	for _, want := range []string{"demo", "w9", "w10", "UK", "Inner London", "-12.3", "-41.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("got %d lines", len(lines))
	}
}

func TestWriteTableNoHeader(t *testing.T) {
	tb := stats.Table{Title: "x"}
	tb.AddRow("row", []float64{1})
	var b strings.Builder
	WriteTable(&b, &tb)
	if lines := strings.Count(b.String(), "\n"); lines != 2 {
		t.Errorf("headerless table printed %d lines", lines)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	flat := Sparkline([]float64{3, 3, 3})
	if len([]rune(flat)) != 3 {
		t.Errorf("flat sparkline = %q", flat)
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	runes := []rune(s)
	if len(runes) != 4 {
		t.Fatalf("sparkline length = %d", len(runes))
	}
	if runes[0] >= runes[3] {
		t.Errorf("sparkline not increasing: %q", s)
	}
}

func TestCheckMark(t *testing.T) {
	if CheckMark(true) != "PASS" || CheckMark(false) != "FAIL" {
		t.Error("CheckMark wrong")
	}
}

func TestWriteMarkdownTable(t *testing.T) {
	tb := stats.Table{Title: "md", ColNames: []string{"w9", "w10"}}
	tb.AddRow("UK|all", []float64{0, -12.34})
	tb.AddRow("long", []float64{1, 2, 3})
	var b strings.Builder
	WriteMarkdownTable(&b, &tb)
	out := b.String()
	for _, want := range []string{"**md**", "| w9 |", "---:|", "UK\\|all", "-12.3", "3.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}
