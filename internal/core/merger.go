package core

import (
	"slices"

	"repro/internal/geo"
	"repro/internal/mobsim"
	"repro/internal/radio"
	"repro/internal/timegrid"
)

// VisitMerger is reusable scratch for the per-user-day half of the §2.3
// pipeline: merging a trace's visits per distinct tower, sorting, and
// computing the mobility metrics. One merger per goroutine replaces the
// map+slice+sort the package-level helpers allocate on every call, so a
// warm merger runs the whole per-user-day pipeline without touching the
// heap — the property the streaming engine's shard stages and the serial
// analyzers both rely on at scale.
//
// A user visits ~10 distinct towers per day at most (the paper's "people
// have at most ~8 important places"), so the dedupe is a linear scan of
// the sample slice and the sort is a handful of comparisons.
//
// Everything returned by Merge/DayMetrics aliases the merger and is
// valid until its next call. The zero value is ready to use.
type VisitMerger struct {
	samples []VisitSample
	pts     []geo.Point
	w       []float64
}

// Merge collapses a day trace into one VisitSample per distinct tower,
// summing dwell across bins in visit order, sorted by descending dwell
// with tower-ID tie-break. The result aliases the merger's scratch.
// Every merger — fresh or warm — returns the same samples for a trace.
func (m *VisitMerger) Merge(t *mobsim.DayTrace, topo *radio.Topology) []VisitSample {
	dst := m.samples[:0]
	for _, v := range t.Visits {
		tw, sec := v.Tower(), float64(v.Seconds())
		found := false
		for i := range dst {
			if dst[i].Tower == tw {
				dst[i].Seconds += sec
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, VisitSample{Tower: tw, Loc: topo.Tower(tw).Loc, Seconds: sec})
		}
	}
	sortSamples(dst)
	m.samples = dst
	return dst
}

// mergeBin is Merge restricted to the visits of one 4-hour bin.
func (m *VisitMerger) mergeBin(t *mobsim.DayTrace, topo *radio.Topology, bin int) []VisitSample {
	dst := m.samples[:0]
	for _, v := range t.Visits {
		if int(v.Bin()) != bin {
			continue
		}
		tw, sec := v.Tower(), float64(v.Seconds())
		found := false
		for i := range dst {
			if dst[i].Tower == tw {
				dst[i].Seconds += sec
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, VisitSample{Tower: tw, Loc: topo.Tower(tw).Loc, Seconds: sec})
		}
	}
	sortSamples(dst)
	m.samples = dst
	return dst
}

// sortSamples orders samples by descending dwell, tower ID ascending on
// ties. Distinct towers make this a total order, so the sorted result is
// unique — independent of the pre-sort order the merge produced.
func sortSamples(s []VisitSample) {
	slices.SortFunc(s, func(a, b VisitSample) int {
		switch {
		case a.Seconds > b.Seconds:
			return -1
		case a.Seconds < b.Seconds:
			return 1
		case a.Tower < b.Tower:
			return -1
		case a.Tower > b.Tower:
			return 1
		default:
			return 0
		}
	})
}

// DayMetrics runs the full §2.3 per-user-day pipeline in the merger's
// scratch — merge visits per tower, apply the top-N filter, compute
// both metrics — allocation-free once the merger is warm.
func (m *VisitMerger) DayMetrics(t *mobsim.DayTrace, topo *radio.Topology, topN int) DayMetrics {
	samples := TopN(m.Merge(t, topo), topN)
	return DayMetrics{
		Entropy:  Entropy(samples),
		Gyration: m.gyration(samples),
		Towers:   len(samples),
	}
}

// AllBinMetrics computes the mobility metrics for each of the six
// disjoint 4-hour bins of a day — the per-bin aggregation §2.3 describes
// alongside the whole-day metrics — in the merger's scratch.
func (m *VisitMerger) AllBinMetrics(t *mobsim.DayTrace, topo *radio.Topology, topN int) [timegrid.BinsPerDay]DayMetrics {
	var out [timegrid.BinsPerDay]DayMetrics
	for bin := 0; bin < timegrid.BinsPerDay; bin++ {
		samples := m.mergeBin(t, topo, bin)
		if len(samples) == 0 {
			continue
		}
		samples = TopN(samples, topN)
		out[bin] = DayMetrics{
			Entropy:  Entropy(samples),
			Gyration: m.gyration(samples),
			Towers:   len(samples),
		}
	}
	return out
}

// gyration computes the radius of gyration of Eq. (2): the root mean
// squared distance of the visited towers from the user's centre of
// mass, weighted by the time spent at each tower, in kilometres. The
// point and weight scratch is reused across calls.
func (m *VisitMerger) gyration(samples []VisitSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	m.pts, m.w = m.pts[:0], m.w[:0]
	for _, s := range samples {
		m.pts = append(m.pts, s.Loc)
		m.w = append(m.w, s.Seconds)
	}
	return geo.RadiusOfGyration(m.pts, m.w)
}
