package core

import (
	"repro/internal/census"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/traffic"
)

// KPIAnalyzer streams per-cell daily KPI records and aggregates them at
// the geographies the paper reports on: nation-wide, per county (§4.3),
// per geodemographic cluster (§4.4), and per postcode district (§5.1).
// For every (group, metric, day) it keeps the median across the group's
// cells, matching the figures' "median values for the delta variation".
//
// ConsumeDay groups a day's records by a counting sort over one
// scratch sized to the 4G estate (about 0.17 MB at the default radio
// config), not one bucket per group and metric.
type KPIAnalyzer struct {
	topo  *radio.Topology
	model *census.Model

	// The groups share one index space: 0 is national, then the
	// counties, the clusters and the districts; group g ≥ 1 has series
	// grid grids[g-1], which byCounty, byCluster and byDistrict view.
	national                        seriesGrid
	grids                           []seriesGrid
	byCounty, byCluster, byDistrict []seriesGrid

	// Day scratch of ConsumeDay's counting sort. Group g's values of
	// one metric sit in vals[start[g]:start[g+1]], in record order; pos
	// holds each record's slots in its county, cluster and district
	// segments, and next is the cursor that hands the slots out.
	vals        []float64
	pos         [][3]int32
	start, next []int
}

// seriesGrid holds one daily value per metric per study day.
type seriesGrid struct {
	v [traffic.NumMetrics][timegrid.StudyDays]float64
}

// NewKPIAnalyzer builds the analyzer for a topology. A cell's groups
// are read from the topology: its tower's district, and that district's
// county and cluster.
func NewKPIAnalyzer(topo *radio.Topology) *KPIAnalyzer {
	model := topo.Model()
	k := &KPIAnalyzer{topo: topo, model: model}
	k.initScratch(make([]seriesGrid, len(model.Counties)+census.NumClusters+len(model.Districts)))
	return k
}

// initScratch adopts grids as the group series grids and sizes the day
// scratch for one record per 4G cell, the most the engine emits a day,
// so the first ConsumeDay of a fresh or forked analyzer does not
// allocate; a larger day regrows it once.
func (k *KPIAnalyzer) initScratch(grids []seriesGrid) {
	nc, nk := len(k.model.Counties), census.NumClusters
	k.grids, k.byCounty, k.byCluster, k.byDistrict = grids, grids[:nc], grids[nc:nc+nk], grids[nc+nk:]
	n := len(k.topo.Cells4G())
	k.vals, k.pos = make([]float64, 4*n), make([][3]int32, n)
	k.start, k.next = make([]int, len(grids)+2), make([]int, len(grids)+2)
}

// ConsumeDay ingests one day of per-cell records; non-study days are
// ignored. It counts the records per group, turns the counts into
// segment offsets, and then, per metric, scatters every value into
// its groups' segments and selects each non-empty segment's median in
// place. A segment holds its group's values in record order, the same
// sequence the copying stats.Median would see, so the result is
// bit-identical to it, and a warm call does not allocate. A group
// with no record that day keeps its previous value.
func (k *KPIAnalyzer) ConsumeDay(day timegrid.SimDay, cells []traffic.CellDay) {
	sd, ok := day.ToStudyDay()
	if !ok {
		return
	}
	n := len(cells)
	if n > len(k.pos) { // four segments per record: national, county, cluster, district
		k.vals, k.pos = make([]float64, 4*n), make([][3]int32, n)
	}
	cb := 1 + len(k.byCounty)   // first cluster group
	db := cb + len(k.byCluster) // first district group

	// Count group g's records into start[g+1], then prefix-sum.
	start, pos := k.start, k.pos[:n]
	clear(start)
	start[1] = n
	for i := range cells {
		did, p := k.topo.DistrictOfCell(cells[i].Cell), &pos[i]
		dist := k.model.District(did)
		p[0] = int32(1 + int(dist.County))
		p[1] = int32(cb + int(dist.Cluster))
		p[2] = int32(db + int(did))
		start[p[0]+1]++
		start[p[1]+1]++
		start[p[2]+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	// Replace each record's groups by its slots in their segments. The
	// national segment is vals[:n], record i at slot i.
	next := k.next
	copy(next, start)
	for i := range pos {
		p := &pos[i]
		for j, g := range p {
			p[j] = int32(next[g])
			next[g]++
		}
	}

	vals := k.vals
	for m := 0; m < traffic.NumMetrics; m++ {
		for i := range cells {
			v, p := cells[i].Values[m], &pos[i]
			vals[i] = v
			vals[p[0]] = v
			vals[p[1]] = v
			vals[p[2]] = v
		}
		if n > 0 {
			k.national.v[m][sd] = stats.MedianInPlace(vals[:n])
		}
		for g := range k.grids {
			if lo, hi := start[g+1], start[g+2]; lo < hi {
				k.grids[g].v[m][sd] = stats.MedianInPlace(vals[lo:hi])
			}
		}
	}
}

// series converts a grid row into a Series.
func (g *seriesGrid) series(label string, m traffic.Metric) stats.Series {
	return stats.Series{Label: label, Values: append([]float64(nil), g.v[m][:]...)}
}

// NationalSeries returns the UK-wide daily median of the metric across
// all 4G cells.
func (k *KPIAnalyzer) NationalSeries(m traffic.Metric) stats.Series {
	return k.national.series("UK - all regions", m)
}

// CountySeries returns the daily median across the county's cells.
func (k *KPIAnalyzer) CountySeries(c *census.County, m traffic.Metric) stats.Series {
	return k.byCounty[c.ID].series(c.Name, m)
}

// ClusterSeries returns the daily median across the cluster's cells.
func (k *KPIAnalyzer) ClusterSeries(c census.Cluster, m traffic.Metric) stats.Series {
	return k.byCluster[c].series(c.Name(), m)
}

// DistrictSeries returns the daily median across the district's cells.
func (k *KPIAnalyzer) DistrictSeries(d *census.District, m traffic.Metric) stats.Series {
	return k.byDistrict[d.ID].series(d.Code, m)
}

// WeeklyDeltaSeries applies the paper's presentation pipeline to a raw
// daily series: delta-variation percentage against the week-9 median,
// then the median per week — one point per week 9…19.
func WeeklyDeltaSeries(s stats.Series) stats.Series {
	base := stats.Median(s.Values[:7])
	daily := DeltaSeries(s, base)
	return daily.WeeklyMedians()
}

// UsersVolumeCorrelation reproduces the §4.4 correlation between the
// total number of connected users and the downlink data volume over the
// study window for one cluster (paper: +0.973 Cosmopolitans, +0.816
// Ethnicity Central, +0.299 Rural Residents, −0.466 Suburbanites).
func (k *KPIAnalyzer) UsersVolumeCorrelation(c census.Cluster) float64 {
	users := k.ClusterSeries(c, traffic.ConnectedUsers)
	vol := k.ClusterSeries(c, traffic.DLVolume)
	r, err := stats.Pearson(users.Values, vol.Values)
	if err != nil {
		return 0
	}
	return r
}
