// Package core implements the paper's primary contribution: the analysis
// pipeline that turns raw per-user tower visits and per-cell KPIs into
// the mobility and network-performance statistics reported in every
// figure — temporal-uncorrelated entropy and radius of gyration (§2.3),
// top-N tower filtering, night-time home detection with census
// validation (Fig. 2), geographic aggregation at
// postcode/county/cluster/national level, the Inner-London mobility
// matrix (Fig. 7), and the delta-variation-versus-week-9 statistics used
// throughout §3–§5.
package core

import (
	"math"

	"repro/internal/geo"
	"repro/internal/mobsim"
	"repro/internal/radio"
)

// VisitSample is one (place, dwell) observation of a user over a time
// window — the input to both mobility metrics.
type VisitSample struct {
	Tower   radio.TowerID
	Loc     geo.Point
	Seconds float64
}

// DefaultTopN is the paper's place filter: for each user, only the top
// 20 towers by connection time are retained, which the paper justifies
// by the finding that people have at most ~8 important places (§2.3).
const DefaultTopN = 20

// TopN returns the first n samples of a descending-sorted sample list
// (the §2.3 top-20 filter). It returns the input unchanged when n <= 0
// or the list is shorter than n.
func TopN(samples []VisitSample, n int) []VisitSample {
	if n <= 0 || len(samples) <= n {
		return samples
	}
	return samples[:n]
}

// Entropy computes the temporal-uncorrelated entropy of Eq. (1):
//
//	e = − Σ_j p(j)·ln p(j)
//
// where p(j) is the fraction of time spent at the j-th visited tower.
// It is 0 for a user who never leaves one tower and ln(N) at most for N
// towers. Samples with non-positive dwell are ignored.
func Entropy(samples []VisitSample) float64 {
	var total float64
	for _, s := range samples {
		if s.Seconds > 0 {
			total += s.Seconds
		}
	}
	if total <= 0 {
		return 0
	}
	var e float64
	for _, s := range samples {
		if s.Seconds <= 0 {
			continue
		}
		p := s.Seconds / total
		e -= p * math.Log(p)
	}
	return e
}

// DayMetrics holds a user's mobility metrics for one day.
type DayMetrics struct {
	Entropy  float64
	Gyration float64 // km
	Towers   int     // distinct towers after the top-N filter
}

// BinMetrics computes the metrics over a single 4-hour bin of the day,
// supporting the paper's per-bin aggregation (§2.3 computes statistics
// over six disjoint 4-hour bins as well as over the full day).
func BinMetrics(t *mobsim.DayTrace, topo *radio.Topology, bin int, topN int) DayMetrics {
	var m VisitMerger
	samples := TopN(m.mergeBin(t, topo, bin), topN)
	return DayMetrics{
		Entropy:  Entropy(samples),
		Gyration: m.gyration(samples),
		Towers:   len(samples),
	}
}
