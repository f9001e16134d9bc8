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
type KPIAnalyzer struct {
	topo  *radio.Topology
	model *census.Model

	// Static cell → group lookups.
	cellDistrict []census.DistrictID
	cellCounty   []census.CountyID
	cellCluster  []census.Cluster

	national   seriesGrid
	byCounty   []seriesGrid
	byCluster  []seriesGrid
	byDistrict []seriesGrid

	// Per-day value buckets, reset at the top of ConsumeDay and
	// reordered in place by its quantile selection. initScratch carves
	// them all out of one arena.
	natVals  [traffic.NumMetrics][]float64
	cntyVals [][traffic.NumMetrics][]float64
	clstVals [][traffic.NumMetrics][]float64
	distVals [][traffic.NumMetrics][]float64
}

// seriesGrid holds one daily value per metric per study day.
type seriesGrid struct {
	v [traffic.NumMetrics][timegrid.StudyDays]float64
}

// NewKPIAnalyzer builds the analyzer for a topology.
func NewKPIAnalyzer(topo *radio.Topology) *KPIAnalyzer {
	model := topo.Model()
	k := &KPIAnalyzer{
		topo:       topo,
		model:      model,
		byCounty:   make([]seriesGrid, len(model.Counties)),
		byCluster:  make([]seriesGrid, census.NumClusters),
		byDistrict: make([]seriesGrid, len(model.Districts)),
	}
	nCells := len(topo.Cells)
	k.cellDistrict = make([]census.DistrictID, nCells)
	k.cellCounty = make([]census.CountyID, nCells)
	k.cellCluster = make([]census.Cluster, nCells)
	for i := range topo.Cells {
		id := topo.Cells[i].ID
		d := topo.DistrictOfCell(id)
		k.cellDistrict[id] = d
		k.cellCounty[id] = model.District(d).County
		k.cellCluster[id] = model.District(d).Cluster
	}
	k.initScratch()
	return k
}

// initScratch carves every value bucket (national, county, cluster and
// district, per metric) out of one arena, each sized to its group's 4G
// cell count: the engine emits at most one record per 4G cell a day, so
// a fresh or forked analyzer never grows a bucket. A day carrying more
// records than that still folds correctly; append then regrows the
// bucket off the arena.
func (k *KPIAnalyzer) initScratch() {
	cells := k.topo.Cells4G()
	cnty := make([]int, len(k.model.Counties))
	clst := make([]int, census.NumClusters)
	dist := make([]int, len(k.model.Districts))
	for _, id := range cells {
		cnty[k.cellCounty[id]]++
		clst[k.cellCluster[id]]++
		dist[k.cellDistrict[id]]++
	}
	arena := make([]float64, 4*traffic.NumMetrics*len(cells))
	carve := func(n int) []float64 {
		b := arena[:0:n]
		arena = arena[n:]
		return b
	}
	for m := range k.natVals {
		k.natVals[m] = carve(len(cells))
	}
	buckets := func(counts []int) [][traffic.NumMetrics][]float64 {
		bs := make([][traffic.NumMetrics][]float64, len(counts))
		for g, n := range counts {
			for m := range bs[g] {
				bs[g][m] = carve(n)
			}
		}
		return bs
	}
	k.cntyVals = buckets(cnty)
	k.clstVals = buckets(clst)
	k.distVals = buckets(dist)
}

// ConsumeDay ingests one day of per-cell records; non-study days are
// ignored. The medians are selected in place over the day's buckets
// (an order statistic does not depend on input order), so the result
// is bit-identical to the copying stats.Median and a warm call does not
// allocate.
func (k *KPIAnalyzer) ConsumeDay(day timegrid.SimDay, cells []traffic.CellDay) {
	sd, ok := day.ToStudyDay()
	if !ok {
		return
	}
	// Reset buckets.
	for m := 0; m < traffic.NumMetrics; m++ {
		k.natVals[m] = k.natVals[m][:0]
	}
	reset := func(buckets [][traffic.NumMetrics][]float64) {
		for g := range buckets {
			for m := 0; m < traffic.NumMetrics; m++ {
				buckets[g][m] = buckets[g][m][:0]
			}
		}
	}
	reset(k.cntyVals)
	reset(k.clstVals)
	reset(k.distVals)

	for i := range cells {
		c := &cells[i]
		cnty := k.cellCounty[c.Cell]
		clst := k.cellCluster[c.Cell]
		dist := k.cellDistrict[c.Cell]
		for m := 0; m < traffic.NumMetrics; m++ {
			v := c.Values[m]
			k.natVals[m] = append(k.natVals[m], v)
			k.cntyVals[cnty][m] = append(k.cntyVals[cnty][m], v)
			k.clstVals[clst][m] = append(k.clstVals[clst][m], v)
			k.distVals[dist][m] = append(k.distVals[dist][m], v)
		}
	}

	for m := 0; m < traffic.NumMetrics; m++ {
		if len(k.natVals[m]) > 0 {
			k.national.v[m][sd] = stats.MedianInPlace(k.natVals[m])
		}
	}
	store := func(buckets [][traffic.NumMetrics][]float64, grids []seriesGrid) {
		for g := range buckets {
			for m := 0; m < traffic.NumMetrics; m++ {
				if len(buckets[g][m]) > 0 {
					grids[g].v[m][sd] = stats.MedianInPlace(buckets[g][m])
				}
			}
		}
	}
	store(k.cntyVals, k.byCounty)
	store(k.clstVals, k.byCluster)
	store(k.distVals, k.byDistrict)
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
