package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestDeltaTableAgainstBaseline runs a small mobility-only sweep and
// checks the differential analytics: the baseline column is excluded,
// self-comparison is exactly zero, and the COVID timeline shows the
// expected large negative mobility delta against the null scenario.
func TestDeltaTableAgainstBaseline(t *testing.T) {
	cfg := sweepConfig()
	scens := sweepScenarios(t, scenario.DefaultCovid, scenario.NoPandemic)
	w := NewWorld(cfg)
	runs := mustSweep(t, w, cfg, scens, SweepOptions{Parallel: 1})

	table, err := DeltaTable(runs, scenario.NoPandemic)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.ColNames) != 1 || table.ColNames[0] != scenario.DefaultCovid {
		t.Fatalf("delta columns = %v, want just %s", table.ColNames, scenario.DefaultCovid)
	}
	if len(table.Rows) == 0 {
		t.Fatal("delta table has no rows")
	}
	// Mobility-only sweep: no KPI series may leak into the table.
	for _, row := range table.Rows {
		if strings.Contains(row.Label, "Volume") || strings.Contains(row.Label, "Voice") {
			t.Fatalf("KPI row %q in a mobility-only delta table", row.Label)
		}
	}
	row := mustRow(t, table, "gyration mean Δ%")
	if row.Values[0] > -20 {
		t.Errorf("covid gyration mean Δ%% vs null = %v, want strongly negative", row.Values[0])
	}

	// Self-comparison: every delta and every shift is exactly zero.
	for _, d := range DeltaSeries(runs[0].Results, runs[0].Results) {
		if d.MeanDelta != 0 || d.MeanPct != 0 || d.TroughShiftDays != 0 || d.PeakShiftDays != 0 {
			t.Errorf("self-delta of %q non-zero: %+v", d.Series, d)
		}
	}

	// DeltaHeadlines flattens four rows per series.
	hs := DeltaHeadlines(runs[0].Results, runs[1].Results)
	if len(hs) != 4*len(DeltaSeries(runs[0].Results, runs[1].Results)) {
		t.Fatalf("headline count %d is not 4 per series", len(hs))
	}

	if _, err := DeltaTable(runs, "not-a-run"); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}
