package core

// This file makes the per-day analyzer folds resumable from a day
// boundary: every study-window analyzer gains a deep-copy Fork, so N
// scenario runs can continue from one shared-prefix snapshot without
// aliasing — the copy-on-divergence sweep (experiments.Checkpoint).
//
// Forks copy the accumulated folds and share only state that is never
// written after construction (the population, topology and cell→group
// lookup tables); per-call scratch is never carried over — it is
// rebuilt exactly as a fresh analyzer builds it, so a fork's future
// output is bit-identical to the original's from the fork point on.

// Fork returns an independent copy of the analyzer: the accumulated
// folds are deep-copied, the population reference is shared (read-only
// by contract) and the merge scratch starts fresh. Advancing the fork
// and the original with different scenarios never aliases.
func (a *MobilityAnalyzer) Fork() *MobilityAnalyzer {
	f := &MobilityAnalyzer{
		pop:       a.pop,
		topN:      a.topN,
		national:  a.national,
		byCounty:  append([]groupAcc(nil), a.byCounty...),
		byCluster: a.byCluster,
	}
	return f
}

// Fork returns an independent copy of the matrix: presence counts are
// deep-copied; the population and the cohort set (never written after
// construction) are shared; the per-call merge scratch starts fresh.
func (m *MobilityMatrix) Fork() *MobilityMatrix {
	f := &MobilityMatrix{
		pop:        m.pop,
		homeCounty: m.homeCounty,
		cohort:     m.cohort,
		topN:       m.topN,
		presence:   make([][]float64, len(m.presence)),
		atHome:     m.atHome,
	}
	for i := range m.presence {
		f.presence[i] = append([]float64(nil), m.presence[i]...)
	}
	return f
}

// Fork returns an independent copy of the analyzer: the series grids
// are deep-copied; the topology and model (never written after
// construction) are shared; the counting-sort day scratch is allocated
// fresh, sized as in NewKPIAnalyzer.
func (k *KPIAnalyzer) Fork() *KPIAnalyzer {
	f := &KPIAnalyzer{
		topo:     k.topo,
		model:    k.model,
		national: k.national,
	}
	f.initScratch(append([]seriesGrid(nil), k.grids...))
	return f
}
