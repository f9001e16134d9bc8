package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// WriteMarkdownTable renders a stats.Table as a GitHub-flavoured
// markdown table, for exporting regenerated figures into markdown
// documents.
func WriteMarkdownTable(w io.Writer, t *stats.Table) {
	if t.Title != "" {
		fmt.Fprintf(w, "**%s**\n\n", t.Title)
	}
	cols := t.ColNames
	fmt.Fprint(w, "| |")
	for _, c := range cols {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|---|")
	for range cols {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |", escapePipes(r.Label))
		for i := range cols {
			if i < len(r.Values) {
				fmt.Fprintf(w, " %.1f |", r.Values[i])
			} else {
				fmt.Fprint(w, " |")
			}
		}
		// Rows longer than the header still print their extra values.
		for i := len(cols); i < len(r.Values); i++ {
			fmt.Fprintf(w, " %.1f |", r.Values[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// escapePipes keeps labels from breaking markdown table cells.
func escapePipes(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
