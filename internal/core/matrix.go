package core

import (
	"sort"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/stats"
	"repro/internal/timegrid"
)

// MobilityMatrix reproduces the §3.4 analysis: for a cohort of users
// whose inferred residence is a given county (Inner London in the
// paper), it counts, per day and per destination county, how many cohort
// members were active there — "for each Inner London resident, we check
// the top 20 locations (at county level) that they visit during each
// day; if none of the visited locations during a day matches their home
// county we are able to identify relocations".
type MobilityMatrix struct {
	pop        *popsim.Population
	homeCounty census.CountyID
	cohort     map[popsim.UserID]bool
	topN       int

	// mg/countyScratch serve the serial ConsumeDay path; sharded
	// pipelines pass their own per-goroutine merger and destination to
	// UserCountiesInto instead.
	mg            VisitMerger
	countyScratch []census.CountyID

	// presence[county][studyDay] = cohort members active in county.
	presence [][]float64
	// atHome[studyDay] = cohort members whose visited counties include
	// the home county.
	atHome [timegrid.StudyDays]float64
}

// NewMobilityMatrix builds the analyzer for a resident cohort. The
// cohort is typically the users whose *detected* home county (via
// HomeDetector) is homeCounty, matching the paper's pipeline.
func NewMobilityMatrix(pop *popsim.Population, homeCounty census.CountyID, cohort []popsim.UserID, topN int) *MobilityMatrix {
	m := &MobilityMatrix{
		pop:        pop,
		homeCounty: homeCounty,
		cohort:     make(map[popsim.UserID]bool, len(cohort)),
		topN:       topN,
		presence:   make([][]float64, len(pop.Model().Counties)),
	}
	for i := range m.presence {
		m.presence[i] = make([]float64, timegrid.StudyDays)
	}
	for _, id := range cohort {
		m.cohort[id] = true
	}
	return m
}

// CohortSize returns the number of tracked residents.
func (m *MobilityMatrix) CohortSize() int { return len(m.cohort) }

// ConsumeDay ingests one simulated day of traces.
func (m *MobilityMatrix) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	sd, ok := day.ToStudyDay()
	if !ok {
		return
	}
	for i := range traces {
		counties, ok := m.UserCountiesInto(&m.mg, &traces[i], m.countyScratch[:0])
		m.countyScratch = counties
		if ok {
			m.ConsumeUserCounties(sd, counties)
		}
	}
}

// UserCountiesInto computes the distinct counties a user's top-N towers
// fall in over one day, reporting whether the user belongs to the
// cohort. This is the expensive per-user half of ConsumeDay, split out
// so a sharded pipeline can run it in parallel and fold the results
// back in with ConsumeUserCounties. mg supplies the visit-merge buffers
// and the county set is appended to dst (which must be empty; pass
// prev[:0] to reuse capacity). ConsumeUserCounties
// treats the set as unordered, so the first-appearance order emitted
// here folds identically to any other order. Concurrent callers must use
// one merger per goroutine; the matrix itself is not written.
func (m *MobilityMatrix) UserCountiesInto(mg *VisitMerger, t *mobsim.DayTrace, dst []census.CountyID) ([]census.CountyID, bool) {
	if !m.cohort[t.User] {
		return dst, false
	}
	topo := m.pop.Topology()
	samples := TopN(mg.Merge(t, topo), m.topN)
	for _, s := range samples {
		c := topo.Tower(s.Tower).County
		seen := false
		for _, prev := range dst {
			if prev == c {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, c)
		}
	}
	return dst, true
}

// ConsumeUserCounties folds one cohort member's visited-county set for a
// study day into the matrix. All updates are unit count increments, so
// the result is independent of the order members are folded in.
func (m *MobilityMatrix) ConsumeUserCounties(sd timegrid.StudyDay, counties []census.CountyID) {
	home := false
	for _, c := range counties {
		m.presence[c][sd]++
		if c == m.homeCounty {
			home = true
		}
	}
	if home {
		m.atHome[sd]++
	}
}

// PresenceSeries returns the raw daily presence counts for a county.
func (m *MobilityMatrix) PresenceSeries(c *census.County) stats.Series {
	return stats.Series{Label: c.Name, Values: append([]float64(nil), m.presence[c.ID]...)}
}

// HomePresenceSeries returns the daily count of cohort members present
// in their home county (the "Inner London line" of Fig. 7).
func (m *MobilityMatrix) HomePresenceSeries() stats.Series {
	return stats.Series{Label: "home presence", Values: append([]float64(nil), m.atHome[:]...)}
}

// TopDestinations returns the n counties (excluding the home county)
// with the highest average cohort presence during week 9, the row
// selection rule of Fig. 7 ("the top 10 counties in terms of receiving
// inbound residents from Inner London according to the average in week
// 9" — plus any county whose lockdown-era presence grew, so relocation
// sinks like Hampshire always appear).
func (m *MobilityMatrix) TopDestinations(n int) []*census.County {
	model := m.pop.Model()
	type scored struct {
		county *census.County
		score  float64
	}
	var all []scored
	for ci := range model.Counties {
		c := &model.Counties[ci]
		if c.ID == m.homeCounty {
			continue
		}
		week9 := stats.Mean(m.presence[c.ID][:7])
		rest := stats.Mean(m.presence[c.ID][7:])
		score := week9
		if rest > score {
			score = rest
		}
		all = append(all, scored{c, score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].county.Name < all[j].county.Name
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]*census.County, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].county
	}
	return out
}

// Matrix renders the Fig. 7 table: one row per county (home county
// first, then the top destinations), one column per study day, each cell
// the delta-variation percentage of cohort presence against the week-9
// average for that county.
func (m *MobilityMatrix) Matrix(nDest int) stats.Table {
	model := m.pop.Model()
	t := stats.Table{Title: "Inner London resident presence by county (Δ% vs week 9)"}
	for d := 0; d < timegrid.StudyDays; d++ {
		t.ColNames = append(t.ColNames, timegrid.DateOfStudyDay(timegrid.StudyDay(d)).Format("01-02"))
	}
	addRow := func(c *census.County) {
		raw := m.presence[c.ID]
		base := stats.Mean(raw[:7])
		t.AddRow(c.Name, stats.DeltaPercentSeries(raw, base))
	}
	addRow(model.County(m.homeCounty))
	for _, c := range m.TopDestinations(nDest) {
		addRow(c)
	}
	return t
}
