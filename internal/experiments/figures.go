package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// Check is one shape assertion against the paper: a direction, ordering
// or coarse magnitude the reproduction must match. Absolute values are
// not compared — the substrate is a simulator, not the authors' testbed.
type Check struct {
	Name string
	Pass bool
	Got  string
	Want string
}

// Figure is the output of one figure runner: the regenerated data
// (tables of weekly series, as the paper plots) plus the shape checks.
type Figure struct {
	ID     string
	Title  string
	Tables []stats.Table
	Notes  []string
	Checks []Check
}

// checkRange appends a range assertion.
func (f *Figure) checkRange(name string, got, lo, hi float64) {
	f.Checks = append(f.Checks, Check{
		Name: name,
		Pass: got >= lo && got <= hi,
		Got:  fmt.Sprintf("%.1f", got),
		Want: fmt.Sprintf("[%.1f, %.1f]", lo, hi),
	})
}

// checkTrue appends a boolean assertion.
func (f *Figure) checkTrue(name string, pass bool, got, want string) {
	f.Checks = append(f.Checks, Check{Name: name, Pass: pass, Got: got, Want: want})
}

// weekColNames returns the column labels "w9" … "w19".
func weekColNames() []string {
	out := make([]string, 0, timegrid.StudyWeeks)
	for _, w := range timegrid.Weeks() {
		out = append(out, fmt.Sprintf("w%d", int(w)))
	}
	return out
}

// weeklyMeanDelta converts a raw daily series to weekly means of the
// delta-variation percentage against the given baseline value.
func weeklyMeanDelta(s stats.Series, baseline float64) []float64 {
	return core.DeltaSeries(s, baseline).WeeklyMeans().Values
}

// weekValue extracts the value for a paper week from a weekly series.
func weekValue(vals []float64, w timegrid.Week) float64 {
	i := w.Index()
	if i < 0 || i >= len(vals) {
		return math.NaN()
	}
	return vals[i]
}

// minOver returns the minimum over the inclusive week range.
func minOver(vals []float64, from, to timegrid.Week) float64 {
	min := math.Inf(1)
	for w := from; w <= to; w++ {
		if v := weekValue(vals, w); v < min {
			min = v
		}
	}
	return min
}

// meanOver returns the mean over the inclusive week range.
func meanOver(vals []float64, from, to timegrid.Week) float64 {
	var sum float64
	var n int
	for w := from; w <= to; w++ {
		sum += weekValue(vals, w)
		n++
	}
	return sum / float64(n)
}

// --- Table 1 ------------------------------------------------------------

// Table1 renders the geodemographic cluster definitions (a static
// dataset, included for completeness).
func Table1() *Figure {
	f := &Figure{ID: "table1", Title: "Geodemographic clusters (2011 OAC)"}
	t := stats.Table{Title: "Table 1", ColNames: []string{}}
	for _, c := range census.Clusters() {
		t.AddRow(c.Name()+" — "+c.Definition(), nil)
	}
	f.Tables = append(f.Tables, t)
	return f
}

// --- Fig. 2: home detection census validation ----------------------------

// Fig2 reproduces the §2.3 validation: inferred residential population
// per area versus census population, with the OLS r² (paper: 0.955).
func Fig2(r *Results) *Figure {
	f := &Figure{ID: "fig2", Title: "Inferred residential population vs census (home detection)"}
	scale := float64(len(r.Dataset.Pop.Native())) / float64(r.Dataset.Model.TotalPopulation())
	val, err := core.ValidateAgainstCensus(r.Homes, r.Dataset.Model, scale)
	if err != nil {
		f.checkTrue("ols fit computed", false, err.Error(), "no error")
		return f
	}
	t := stats.Table{Title: "Fig. 2: per-district inferred vs census (scaled)", ColNames: []string{"census", "inferred"}}
	for i, label := range val.Labels {
		t.AddRow(label, []float64{val.Census[i], val.Inferred[i]})
	}
	f.Tables = append(f.Tables, t)
	f.Notes = append(f.Notes,
		fmt.Sprintf("OLS fit: inferred = %.2f + %.3f·census, r² = %.3f over %d areas (paper: r² = 0.955)",
			val.Fit.Intercept, val.Fit.Slope, val.Fit.R2, val.Areas),
		fmt.Sprintf("homes detected for %d of %d native users (paper: ~16M of ~22M)",
			len(r.Homes), len(r.Dataset.Pop.Native())))
	f.checkRange("r² of census fit", val.Fit.R2, 0.90, 1.0)
	f.checkTrue("positive linear relationship", val.Fit.Slope > 0,
		fmt.Sprintf("slope %.3f", val.Fit.Slope), "> 0")
	frac := float64(len(r.Homes)) / float64(len(r.Dataset.Pop.Native()))
	f.checkRange("fraction of users with detected home", frac, 0.70, 1.0)
	return f
}

// --- Fig. 3: national mobility -------------------------------------------

// Fig3 reproduces the national gyration/entropy time series (daily
// averages, delta vs week-9 average).
func Fig3(r *Results) *Figure {
	f := &Figure{ID: "fig3", Title: "National mobility: radius of gyration and entropy"}
	gyr := r.Mobility.NationalSeries(core.MetricGyration)
	ent := r.Mobility.NationalSeries(core.MetricEntropy)
	gw := weeklyMeanDelta(gyr, stats.Mean(gyr.Values[:7]))
	ew := weeklyMeanDelta(ent, stats.Mean(ent.Values[:7]))

	t := stats.Table{Title: "Fig. 3: Δ% vs week-9 average (weekly means)", ColNames: weekColNames()}
	t.AddRow("gyration", gw)
	t.AddRow("entropy", ew)
	f.Tables = append(f.Tables, t)

	f.checkRange("gyration decrease by week 12 (paper ≈ −20%)", weekValue(gw, 12), -35, -8)
	f.checkRange("gyration drop in weeks 13-14 (paper ≈ −50%)", minOver(gw, 13, 14), -65, -40)
	f.checkTrue("entropy drops less than gyration",
		math.Abs(minOver(ew, 13, 19)) < math.Abs(minOver(gw, 13, 19)),
		fmt.Sprintf("entropy min %.1f vs gyration min %.1f", minOver(ew, 13, 19), minOver(gw, 13, 19)),
		"|entropy| < |gyration|")
	f.checkTrue("slight relaxation after week 14",
		meanOver(gw, 18, 19) > weekValue(gw, 14)+2,
		fmt.Sprintf("w18-19 %.1f vs w14 %.1f", meanOver(gw, 18, 19), weekValue(gw, 14)),
		"weeks 18-19 above week 14")
	f.checkRange("pre-pandemic weeks stay near baseline", math.Abs(weekValue(gw, 10)), 0, 8)
	return f
}

// --- Fig. 4: mobility vs confirmed cases ---------------------------------

// Fig4 reproduces the entropy-vs-cumulative-cases scatter: mobility
// responds to interventions, not to case counts.
func Fig4(r *Results) *Figure {
	f := &Figure{ID: "fig4", Title: "Entropy variation vs cumulative SARS-CoV-2 cases"}
	ent := r.Mobility.NationalSeries(core.MetricEntropy)
	base := stats.Mean(ent.Values[:7])
	delta := core.DeltaSeries(ent, base)
	scen := r.Dataset.Scenario

	t := stats.Table{Title: "Fig. 4: per-day (cases, entropy Δ%)", ColNames: []string{"cases", "entropyΔ%"}}
	var lowCaseDeltas, relaxEnt, relaxCases []float64
	for d := 0; d < timegrid.StudyDays; d++ {
		sd := timegrid.StudyDay(d)
		cases := scen.CumulativeCases(sd)
		t.AddRow(timegrid.DateOfStudyDay(sd).Format("01-02"), []float64{cases, delta.Values[d]})
		if cases < 1000 {
			lowCaseDeltas = append(lowCaseDeltas, delta.Values[d])
		}
		if timegrid.PhaseOf(sd) == timegrid.PhaseRelaxation {
			relaxEnt = append(relaxEnt, delta.Values[d])
			relaxCases = append(relaxCases, cases)
		}
	}
	f.Tables = append(f.Tables, t)

	// Mobility is still near baseline while cases are below 1,000 (the
	// pandemic-declaration threshold of the figure's red line).
	f.checkRange("mean entropy Δ% while cases < 1000", stats.Mean(lowCaseDeltas), -10, 5)
	// Decoupling after lockdown: cases keep rising while mobility is
	// flat or recovering, so the within-phase correlation is not the
	// strong negative a causal link would produce.
	rho, err := stats.Pearson(relaxCases, relaxEnt)
	f.checkTrue("no negative coupling during relaxation phase",
		err == nil && rho > -0.2,
		fmt.Sprintf("pearson %.2f", rho), "> -0.2")
	f.Notes = append(f.Notes,
		"mobility drops only after the declaration/lockdown, not in proportion to case counts",
		fmt.Sprintf("cases at declaration ≈ %.0f; at end of window ≈ %.0f",
			scen.CumulativeCases(timegrid.PandemicDeclared), scen.CumulativeCases(timegrid.StudyDays-1)))
	return f
}

// --- Fig. 5: regional mobility -------------------------------------------

// Fig5 reproduces the five-region mobility comparison, with deltas
// against the *national* week-9 average as in the paper.
func Fig5(r *Results) *Figure {
	f := &Figure{ID: "fig5", Title: "Regional mobility (vs national week-9 average)"}
	natG := r.Mobility.NationalWeek9Baseline(core.MetricGyration)
	natE := r.Mobility.NationalWeek9Baseline(core.MetricEntropy)

	tg := stats.Table{Title: "Fig. 5a: gyration Δ% vs national week 9", ColNames: weekColNames()}
	te := stats.Table{Title: "Fig. 5b: entropy Δ% vs national week 9", ColNames: weekColNames()}
	regionW := map[string][]float64{}
	var refG, refE = map[string]float64{}, map[string]float64{}
	for _, c := range r.Dataset.Model.FocusRegions() {
		g := r.Mobility.CountySeries(c, core.MetricGyration)
		e := r.Mobility.CountySeries(c, core.MetricEntropy)
		gw := weeklyMeanDelta(g, natG)
		ew := weeklyMeanDelta(e, natE)
		tg.AddRow(c.Name, gw)
		te.AddRow(c.Name, ew)
		regionW[c.Name] = gw
		refG[c.Name] = stats.Mean(g.Values[:7])
		refE[c.Name] = stats.Mean(e.Values[:7])
	}
	f.Tables = append(f.Tables, tg, te)

	// London reference levels: gyration below national, entropy above.
	for _, ln := range []string{"Inner London", "Outer London"} {
		f.checkTrue(ln+" baseline gyration below national",
			refG[ln] < natG*0.95,
			fmt.Sprintf("%.2f vs national %.2f km", refG[ln], natG), "< 0.95×national")
		f.checkTrue(ln+" baseline entropy above national",
			refE[ln] > natE*1.02,
			fmt.Sprintf("%.3f vs national %.3f", refE[ln], natE), "> 1.02×national")
	}
	// Every region collapses after the stay-at-home order. Sorted names
	// keep the check order, and so the figures output, deterministic.
	for _, name := range slices.Sorted(maps.Keys(regionW)) {
		gw := regionW[name]
		f.checkTrue(name+" sharp decrease in weeks 13-14",
			minOver(gw, 13, 14) < refDelta(refG[name], natG)-30,
			fmt.Sprintf("min %.1f vs ref %.1f", minOver(gw, 13, 14), refDelta(refG[name], natG)),
			"≥30 points below own reference")
	}
	// Regional relaxation differences in weeks 18-19.
	relaxOf := func(name string) float64 {
		return meanOver(regionW[name], 18, 19) - weekValue(regionW[name], 14)
	}
	f.checkTrue("London and West Yorkshire relax more than Manchester/West Midlands",
		(relaxOf("Inner London")+relaxOf("West Yorkshire"))/2 >
			(relaxOf("Greater Manchester")+relaxOf("West Midlands"))/2+2,
		fmt.Sprintf("IL/WY %.1f vs GM/WM %.1f", (relaxOf("Inner London")+relaxOf("West Yorkshire"))/2,
			(relaxOf("Greater Manchester")+relaxOf("West Midlands"))/2),
		"larger week-18/19 rebound")
	return f
}

// refDelta converts a region's baseline level into its Δ% versus the
// national baseline (the offset its reference line sits at in Fig. 5).
func refDelta(regional, national float64) float64 {
	return stats.DeltaPercent(regional, national)
}

// --- Fig. 6: geodemographic mobility -------------------------------------

// Fig6 reproduces the per-cluster mobility comparison.
func Fig6(r *Results) *Figure {
	f := &Figure{ID: "fig6", Title: "Geodemographic cluster mobility (vs national week-9 average)"}
	natG := r.Mobility.NationalWeek9Baseline(core.MetricGyration)
	natE := r.Mobility.NationalWeek9Baseline(core.MetricEntropy)

	tg := stats.Table{Title: "Fig. 6a: gyration Δ% vs national week 9", ColNames: weekColNames()}
	te := stats.Table{Title: "Fig. 6b: entropy Δ% vs national week 9", ColNames: weekColNames()}
	type clusterStats struct {
		gw, ew       []float64
		refG, refE   float64
		gDrop, eDrop float64 // relative drop vs own week-9 level
	}
	cs := map[census.Cluster]clusterStats{}
	for _, c := range census.Clusters() {
		g := r.Mobility.ClusterSeries(c, core.MetricGyration)
		e := r.Mobility.ClusterSeries(c, core.MetricEntropy)
		st := clusterStats{
			gw:   weeklyMeanDelta(g, natG),
			ew:   weeklyMeanDelta(e, natE),
			refG: stats.Mean(g.Values[:7]),
			refE: stats.Mean(e.Values[:7]),
		}
		ownGW := weeklyMeanDelta(g, st.refG)
		ownEW := weeklyMeanDelta(e, st.refE)
		st.gDrop = minOver(ownGW, 13, 15)
		st.eDrop = minOver(ownEW, 13, 15)
		tg.AddRow(c.Name(), st.gw)
		te.AddRow(c.Name(), st.ew)
		cs[c] = st
	}
	f.Tables = append(f.Tables, tg, te)

	f.checkTrue("rural baseline gyration above national",
		cs[census.RuralResidents].refG > natG*1.15,
		fmt.Sprintf("%.2f vs %.2f km", cs[census.RuralResidents].refG, natG), "> 1.15×national")
	f.checkTrue("dense urban clusters cover smaller areas",
		cs[census.Cosmopolitans].refG < natG && cs[census.EthnicityCentral].refG < natG,
		fmt.Sprintf("cosmo %.2f, ethC %.2f vs national %.2f", cs[census.Cosmopolitans].refG,
			cs[census.EthnicityCentral].refG, natG), "both < national")
	f.checkTrue("dense urban clusters have higher entropy",
		cs[census.Cosmopolitans].refE > natE && cs[census.EthnicityCentral].refE > natE,
		fmt.Sprintf("cosmo %.3f, ethC %.3f vs national %.3f", cs[census.Cosmopolitans].refE,
			cs[census.EthnicityCentral].refE, natE), "both > national")
	for _, c := range census.Clusters() {
		f.checkRange(c.Name()+" gyration drop vs own baseline (weeks 13-15)", cs[c].gDrop, -85, -38)
	}
	f.checkTrue("Ethnicity Central entropy reduction smaller than its gyration reduction",
		math.Abs(cs[census.EthnicityCentral].eDrop) < math.Abs(cs[census.EthnicityCentral].gDrop),
		fmt.Sprintf("entropy %.1f vs gyration %.1f", cs[census.EthnicityCentral].eDrop,
			cs[census.EthnicityCentral].gDrop), "|entropy| < |gyration|")
	return f
}

// --- Fig. 7: Inner London mobility matrix --------------------------------

// Fig7 reproduces the temporary-relocation analysis of §3.4.
func Fig7(r *Results) *Figure {
	f := &Figure{ID: "fig7", Title: "Mobility matrix: Inner London residents by county"}
	m := r.Matrix
	f.Tables = append(f.Tables, m.Matrix(10))

	home := m.HomePresenceSeries()
	base := stats.Mean(home.Values[:7])
	hw := weeklyMeanDelta(home, base)
	f.checkRange("Inner London residents present at home from week 13 (paper ≈ −10%)",
		meanOver(hw, 13, 19), -18, -6)
	f.checkTrue("decrease is sustained (weeks 13-19 all below −5%)",
		minOver(hw, 13, 19) < -5 && maxOverWeeks(hw, 13, 19) < -5,
		fmt.Sprintf("range [%.1f, %.1f]", minOver(hw, 13, 19), maxOverWeeks(hw, 13, 19)), "all < -5")

	if hamp, ok := r.Dataset.Model.CountyByName("Hampshire"); ok {
		p := m.PresenceSeries(hamp)
		b := stats.Mean(p.Values[:7])
		pw := weeklyMeanDelta(p, b)
		f.checkTrue("sustained relocation into Hampshire during lockdown",
			meanOver(pw, 13, 19) > 100,
			fmt.Sprintf("weeks 13-19 mean %.0f%%", meanOver(pw, 13, 19)), "> +100%")
	}
	if es, ok := r.Dataset.Model.CountyByName("East Sussex"); ok {
		p := m.PresenceSeries(es)
		// 21–22 March are study days 26–27.
		spike := (p.Values[26] + p.Values[27]) / 2
		b := stats.Mean(p.Values[:7])
		f.checkTrue("East Sussex spike on 21-22 March (pre-lockdown weekend)",
			spike > 1.5*b,
			fmt.Sprintf("%.1f vs baseline %.1f", spike, b), "> 1.5×baseline")
	}
	f.Notes = append(f.Notes, fmt.Sprintf("cohort: %d users with detected Inner London homes", m.CohortSize()))
	return f
}

// maxOverWeeks mirrors minOver for maxima.
func maxOverWeeks(vals []float64, from, to timegrid.Week) float64 {
	max := math.Inf(-1)
	for w := from; w <= to; w++ {
		if v := weekValue(vals, w); v > max {
			max = v
		}
	}
	return max
}

// --- Fig. 8: network KPIs, UK + regions ----------------------------------

// Fig8 reproduces the six KPI panels over the UK and the five focus
// regions (all-bearer traffic).
func Fig8(r *Results) *Figure {
	f := &Figure{ID: "fig8", Title: "MNO performance characterization (all data traffic)"}
	kpi := r.KPI
	rows := func(m traffic.Metric) stats.Table {
		t := stats.Table{Title: "Fig. 8: " + m.String() + " (weekly median Δ% vs week-9 median)", ColNames: weekColNames()}
		t.AddRow("UK - all regions", core.WeeklyDeltaSeries(kpi.NationalSeries(m)).Values)
		for _, c := range r.Dataset.Model.FocusRegions() {
			t.AddRow(c.Name, core.WeeklyDeltaSeries(kpi.CountySeries(c, m)).Values)
		}
		return t
	}
	for _, m := range traffic.DataMetrics() {
		f.Tables = append(f.Tables, rows(m))
	}

	uk := func(m traffic.Metric) []float64 {
		return core.WeeklyDeltaSeries(kpi.NationalSeries(m)).Values
	}
	dl, ul := uk(traffic.DLVolume), uk(traffic.ULVolume)
	act, thr, load := uk(traffic.DLActiveUsers), uk(traffic.DLThroughput), uk(traffic.RadioLoad)

	f.checkRange("UK DL volume increase in week 10 (paper +8%)", weekValue(dl, 10), 1, 15)
	f.checkRange("UK DL volume trough (paper −24% in week 17)", minOver(dl, 14, 19), -35, -15)
	f.checkTrue("UL volume far more stable than DL during lockdown",
		math.Abs(meanOver(ul, 14, 19)) < math.Abs(meanOver(dl, 14, 19))/2,
		fmt.Sprintf("UL %.1f vs DL %.1f", meanOver(ul, 14, 19), meanOver(dl, 14, 19)), "|UL| < |DL|/2")
	f.checkRange("UL volume within modest bounds during lockdown", meanOver(ul, 13, 19), -12, 6)
	posRegions, minRegion := regionalULWeek(r, 10)
	f.checkTrue("UL grows in week 10 across regions",
		posRegions >= 4 && minRegion > -3,
		fmt.Sprintf("%d/5 regions positive, min %.1f", posRegions, minRegion),
		"≥4 of 5 positive, none below -3 (small-sample noise allowed)")
	f.checkRange("UK active DL users trough (paper −28.6%)", minOver(act, 14, 19), -40, -18)
	f.checkRange("user DL throughput max drop (paper ≈ −10%)", minOver(thr, 13, 19), -15, -5)
	f.checkRange("radio load trough (paper −15.1% in week 16)", minOver(load, 14, 19), -25, -8)

	inner, _ := r.Dataset.Model.CountyByName("Inner London")
	outer, _ := r.Dataset.Model.CountyByName("Outer London")
	idl := core.WeeklyDeltaSeries(kpi.CountySeries(inner, traffic.DLVolume)).Values
	odl := core.WeeklyDeltaSeries(kpi.CountySeries(outer, traffic.DLVolume)).Values
	iul := core.WeeklyDeltaSeries(kpi.CountySeries(inner, traffic.ULVolume)).Values
	oul := core.WeeklyDeltaSeries(kpi.CountySeries(outer, traffic.ULVolume)).Values
	f.checkTrue("Inner London DL decrease much larger than Outer London (paper −41% vs −15%)",
		minOver(idl, 14, 19) < minOver(odl, 14, 19)-12,
		fmt.Sprintf("inner %.1f vs outer %.1f", minOver(idl, 14, 19), minOver(odl, 14, 19)),
		"≥12 points deeper")
	f.checkTrue("Inner/Outer London UL diverge (paper −22% vs +17% in week 14)",
		weekValue(iul, 13) < weekValue(oul, 13)-15,
		fmt.Sprintf("inner %.1f vs outer %.1f (w13)", weekValue(iul, 13), weekValue(oul, 13)),
		"inner ≥15 points below outer")
	f.checkTrue("Outer London UL positive entering lockdown",
		weekValue(oul, 12) > 0,
		fmt.Sprintf("w12 %.1f", weekValue(oul, 12)), "> 0")
	return f
}

// regionalULWeek returns how many focus regions had positive UL volume
// deltas in the given week, and the smallest regional value.
func regionalULWeek(r *Results, w timegrid.Week) (positive int, min float64) {
	min = math.Inf(1)
	for _, c := range r.Dataset.Model.FocusRegions() {
		vals := core.WeeklyDeltaSeries(r.KPI.CountySeries(c, traffic.ULVolume)).Values
		v := weekValue(vals, w)
		if v > 0 {
			positive++
		}
		if v < min {
			min = v
		}
	}
	return positive, min
}

// --- Fig. 9: voice traffic ------------------------------------------------

// Fig9 reproduces the QCI-1 voice analysis, including the interconnect
// congestion incident.
func Fig9(r *Results) *Figure {
	f := &Figure{ID: "fig9", Title: "4G voice traffic (QCI 1), UK"}
	kpi := r.KPI
	t := stats.Table{Title: "Fig. 9: voice metrics (weekly median Δ% vs week-9 median)", ColNames: weekColNames()}
	series := map[traffic.Metric][]float64{}
	for _, m := range traffic.VoiceMetrics() {
		vals := core.WeeklyDeltaSeries(kpi.NationalSeries(m)).Values
		series[m] = vals
		t.AddRow(m.String(), vals)
	}
	f.Tables = append(f.Tables, t)

	vol, users := series[traffic.VoiceVolume], series[traffic.VoiceUsers]
	dls, uls := series[traffic.VoiceDLLoss], series[traffic.VoiceULLoss]

	f.checkRange("voice volume spike in week 12 (paper +140%)", weekValue(vol, 12), 100, 180)
	f.checkRange("voice volume peak (paper ≈ +150%)", maxOverWeeks(vol, 12, 14), 120, 185)
	f.checkTrue("simultaneous voice users spike with the volume",
		weekValue(users, 12) > 80,
		fmt.Sprintf("w12 %.1f", weekValue(users, 12)), "> +80%")
	f.checkRange("DL packet loss surge in week 10 (paper > +100%)", weekValue(dls, 10), 60, 400)
	f.checkRange("DL packet loss surge in week 11 (paper > +100%)", weekValue(dls, 11), 100, 500)
	f.checkTrue("DL loss reverts below baseline after the interconnect upgrade",
		maxOverWeeks(dls, 13, 19) < 0,
		fmt.Sprintf("weeks 13-19 max %.1f", maxOverWeeks(dls, 13, 19)), "< 0")
	f.checkTrue("UL packet loss decreases during the pandemic period",
		meanOver(uls, 13, 19) < 0,
		fmt.Sprintf("weeks 13-19 mean %.1f", meanOver(uls, 13, 19)), "< 0")
	f.Notes = append(f.Notes,
		"the voice surge exceeded the inter-MNO interconnection capacity in weeks 10-12;",
		"operations response (capacity upgrade on 21 March) restored DL loss below normal values")
	return f
}

// --- Fig. 10: cluster KPIs -------------------------------------------------

// Fig10 reproduces the geodemographic-cluster network analysis.
func Fig10(r *Results) *Figure {
	f := &Figure{ID: "fig10", Title: "Network performance by geodemographic cluster"}
	kpi := r.KPI
	for _, m := range []traffic.Metric{traffic.DLVolume, traffic.ULVolume, traffic.ConnectedUsers, traffic.DLActiveUsers} {
		t := stats.Table{Title: "Fig. 10: " + m.String() + " (weekly median Δ% vs week-9 median)", ColNames: weekColNames()}
		for _, c := range census.Clusters() {
			t.AddRow(c.Name(), core.WeeklyDeltaSeries(kpi.ClusterSeries(c, m)).Values)
		}
		f.Tables = append(f.Tables, t)
	}

	cosmoDL := core.WeeklyDeltaSeries(kpi.ClusterSeries(census.Cosmopolitans, traffic.DLVolume)).Values
	ruralDL := core.WeeklyDeltaSeries(kpi.ClusterSeries(census.RuralResidents, traffic.DLVolume)).Values
	cosmoU := core.WeeklyDeltaSeries(kpi.ClusterSeries(census.Cosmopolitans, traffic.ConnectedUsers)).Values

	f.checkTrue("Cosmopolitan DL volume decreases dramatically after week 13",
		minOver(cosmoDL, 13, 19) < -40,
		fmt.Sprintf("min %.1f", minOver(cosmoDL, 13, 19)), "< -40")
	f.checkRange("Rural DL volume remains largely stable", meanOver(ruralDL, 13, 19), -12, 12)
	f.checkTrue("Cosmopolitan connected users drop sharply (paper up to −50%)",
		minOver(cosmoU, 13, 19) < -30,
		fmt.Sprintf("min %.1f", minOver(cosmoU, 13, 19)), "< -30")

	// Correlation table (paper: +0.973, +0.816, +0.299, −0.466).
	ct := stats.Table{Title: "Fig. 10: correlation between total users and DL volume", ColNames: []string{"pearson"}}
	var cCosmo, cEth, cRural, cSub float64
	for _, c := range census.Clusters() {
		rho := kpi.UsersVolumeCorrelation(c)
		ct.AddRow(c.Name(), []float64{rho})
		switch c {
		case census.Cosmopolitans:
			cCosmo = rho
		case census.EthnicityCentral:
			cEth = rho
		case census.RuralResidents:
			cRural = rho
		case census.Suburbanites:
			cSub = rho
		}
	}
	f.Tables = append(f.Tables, ct)
	f.checkRange("Cosmopolitans users↔volume correlation (paper +0.973)", cCosmo, 0.85, 1.0)
	f.checkRange("Ethnicity Central correlation (paper +0.816)", cEth, 0.6, 1.0)
	f.checkTrue("Rural correlation low (paper +0.299)",
		cRural < cCosmo-0.2 && cRural < cEth && cRural > -0.4,
		fmt.Sprintf("%.3f", cRural), "well below the urban clusters, not strongly negative")
	f.checkRange("Suburbanites correlation negative (paper −0.466)", cSub, -1.0, -0.15)
	return f
}

// --- Fig. 11: London postal districts --------------------------------------

// Fig11 reproduces the Inner-London per-district KPI analysis.
func Fig11(r *Results) *Figure {
	f := &Figure{ID: "fig11", Title: "Network performance: Inner London postal districts"}
	kpi := r.KPI
	inner := r.Dataset.Model.InnerLondon()
	metrics := []traffic.Metric{traffic.DLVolume, traffic.ULVolume, traffic.DLActiveUsers, traffic.ConnectedUsers, traffic.RadioLoad, traffic.DLThroughput}
	perDistrict := map[string]map[traffic.Metric][]float64{}
	for _, m := range metrics {
		t := stats.Table{Title: "Fig. 11: " + m.String() + " (weekly median Δ% vs week-9 median)", ColNames: weekColNames()}
		for _, did := range inner.Districts {
			d := r.Dataset.Model.District(did)
			vals := core.WeeklyDeltaSeries(kpi.DistrictSeries(d, m)).Values
			t.AddRow(d.Code, vals)
			if perDistrict[d.Code] == nil {
				perDistrict[d.Code] = map[traffic.Metric][]float64{}
			}
			perDistrict[d.Code][m] = vals
		}
		f.Tables = append(f.Tables, t)
	}

	ec := perDistrict["EC"][traffic.DLVolume]
	wc := perDistrict["WC"][traffic.DLVolume]
	f.checkTrue("EC district DL collapse (paper > 70% decrease)",
		minOver(ec, 14, 19) < -50,
		fmt.Sprintf("min %.1f", minOver(ec, 14, 19)), "< -50")
	f.checkTrue("WC district DL collapse (paper > 80% decrease)",
		minOver(wc, 14, 19) < -55,
		fmt.Sprintf("min %.1f", minOver(wc, 14, 19)), "< -55")
	f.checkTrue("EC/WC uplink collapses alongside the downlink",
		minOver(perDistrict["EC"][traffic.ULVolume], 14, 19) < -45 &&
			minOver(perDistrict["WC"][traffic.ULVolume], 14, 19) < -45,
		fmt.Sprintf("EC %.1f, WC %.1f", minOver(perDistrict["EC"][traffic.ULVolume], 14, 19),
			minOver(perDistrict["WC"][traffic.ULVolume], 14, 19)), "both < -45")
	// Central districts fall much harder than the residential ones.
	resMean := (minOver(perDistrict["N"][traffic.DLVolume], 14, 19) +
		minOver(perDistrict["SE"][traffic.DLVolume], 14, 19) +
		minOver(perDistrict["SW"][traffic.DLVolume], 14, 19)) / 3
	cenMean := (minOver(ec, 14, 19) + minOver(wc, 14, 19)) / 2
	f.checkTrue("central EC/WC detach from residential districts",
		cenMean < resMean-20,
		fmt.Sprintf("central %.1f vs residential %.1f", cenMean, resMean), "≥20 points deeper")
	f.checkTrue("N district holds up best among Inner London districts (hotspot moves north)",
		minOver(perDistrict["N"][traffic.DLActiveUsers], 10, 14) >
			minOver(perDistrict["EC"][traffic.DLActiveUsers], 10, 14)+15,
		fmt.Sprintf("N %.1f vs EC %.1f", minOver(perDistrict["N"][traffic.DLActiveUsers], 10, 14),
			minOver(perDistrict["EC"][traffic.DLActiveUsers], 10, 14)), "N ≥15 points above EC")
	f.Notes = append(f.Notes,
		"paper also reports N-district DL users *increasing* +10–23% in weeks 10-14; our model keeps N mildest-declining rather than growing (a known deviation of the model)")
	return f
}

// --- Fig. 12: London geodemographic clusters -------------------------------

// Fig12 reproduces the London-centric cluster analysis.
func Fig12(r *Results) *Figure {
	f := &Figure{ID: "fig12", Title: "London network performance by geodemographic cluster"}
	kpi := r.KPI
	model := r.Dataset.Model
	londonClusters := model.LondonClusters()
	f.checkTrue("exactly three clusters map to Inner London",
		len(londonClusters) == 3,
		fmt.Sprintf("%d clusters", len(londonClusters)), "3")

	// London-only aggregation: median across the Inner London districts
	// belonging to each cluster.
	inner := model.InnerLondon()
	metrics := []traffic.Metric{traffic.DLVolume, traffic.ULVolume, traffic.DLActiveUsers, traffic.DLThroughput}
	clusterVals := map[census.Cluster]map[traffic.Metric][]float64{}
	for _, m := range metrics {
		t := stats.Table{Title: "Fig. 12: " + m.String() + " (London, weekly median Δ% vs week-9 median)", ColNames: weekColNames()}
		for _, cl := range londonClusters {
			// Average the weekly deltas of this cluster's districts.
			var acc []float64
			var n int
			for _, did := range inner.Districts {
				d := model.District(did)
				if d.Cluster != cl {
					continue
				}
				vals := core.WeeklyDeltaSeries(kpi.DistrictSeries(d, m)).Values
				if acc == nil {
					acc = make([]float64, len(vals))
				}
				for i, v := range vals {
					acc[i] += v
				}
				n++
			}
			for i := range acc {
				acc[i] /= float64(n)
			}
			t.AddRow(cl.Name(), acc)
			if clusterVals[cl] == nil {
				clusterVals[cl] = map[traffic.Metric][]float64{}
			}
			clusterVals[cl][m] = acc
		}
		f.Tables = append(f.Tables, t)
	}

	cosmo := clusterVals[census.Cosmopolitans]
	multi := clusterVals[census.MulticulturalMetropolitans]
	f.checkTrue("Cosmopolitan London areas drop sharply in both directions (paper > 50% in week 13)",
		weekValue(cosmo[traffic.DLVolume], 13) < -35 && weekValue(cosmo[traffic.ULVolume], 13) < -30,
		fmt.Sprintf("DL %.1f, UL %.1f (w13)", weekValue(cosmo[traffic.DLVolume], 13),
			weekValue(cosmo[traffic.ULVolume], 13)), "both strongly negative")
	f.checkTrue("Multicultural areas hold up far better than Cosmopolitan areas",
		weekValue(multi[traffic.ULVolume], 13) > weekValue(cosmo[traffic.ULVolume], 13)+25,
		fmt.Sprintf("multi %.1f vs cosmo %.1f (w13 UL)", weekValue(multi[traffic.ULVolume], 13),
			weekValue(cosmo[traffic.ULVolume], 13)), "≥25 points above")
	f.checkTrue("throughput trends are common across London clusters",
		math.Abs(minOver(cosmo[traffic.DLThroughput], 13, 19)-minOver(multi[traffic.DLThroughput], 13, 19)) < 6,
		fmt.Sprintf("cosmo %.1f vs multi %.1f", minOver(cosmo[traffic.DLThroughput], 13, 19),
			minOver(multi[traffic.DLThroughput], 13, 19)), "within 6 points")
	return f
}

// FigureIDs lists the figure IDs a run can print, in output order: those
// of AllFigures, then the two extensions (ExtBinsAndBands, ExtSEIR). It
// lets a command resolve a figure name before anything is simulated.
func FigureIDs() []string {
	return []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "ext-bins", "ext-seir"}
}

// AllFigures runs every figure against one set of results.
func AllFigures(r *Results) []*Figure {
	return []*Figure{
		Table1(),
		Fig2(r), Fig3(r), Fig4(r), Fig5(r), Fig6(r), Fig7(r),
		Fig8(r), Fig9(r), Fig10(r), Fig11(r), Fig12(r),
	}
}
