package signaling

import "repro/internal/radio"

// Aggregator reduces a raw event stream to the postcode-level feed the
// paper actually analyses ("these feeds are aggregated at postcode level
// or larger granularity", §2.2): per-district per-type counts, failure
// tallies. Districts have dense IDs, so every tally is an array slot and
// consuming an event allocates nothing.
type Aggregator struct {
	topo *radio.Topology

	// ByDistrict is indexed by census.DistrictID.
	ByDistrict []DistrictCounts
	ByType     [NumEventTypes]int64
	Failures   int64
	Total      int64
}

// DistrictCounts is the per-postcode aggregate.
type DistrictCounts struct {
	ByType   [NumEventTypes]int64
	Failures int64
	Total    int64
}

// NewAggregator builds an aggregator over a topology.
func NewAggregator(topo *radio.Topology) *Aggregator {
	return &Aggregator{
		topo:       topo,
		ByDistrict: make([]DistrictCounts, len(topo.Model().Districts)),
	}
}

// Consume ingests one event; it is an EmitFunc.
func (a *Aggregator) Consume(e Event) {
	a.Total++
	a.ByType[e.Type]++
	if !e.OK {
		a.Failures++
	}
	dc := &a.ByDistrict[a.topo.Tower(e.Tower).District]
	dc.Total++
	dc.ByType[e.Type]++
	if !e.OK {
		dc.Failures++
	}
}
