package signaling

import (
	"math/bits"

	"repro/internal/devices"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// Aggregator reduces a raw event stream to the postcode-level feed the
// paper actually analyses ("these feeds are aggregated at postcode level
// or larger granularity", §2.2): per-district per-type counts, failure
// tallies, distinct-user reach and RAT usage. Districts and users both
// have dense IDs, so every tally is an array slot and consuming an
// event allocates nothing once the user bitset has grown.
type Aggregator struct {
	topo *radio.Topology

	// ByDistrict is indexed by census.DistrictID.
	ByDistrict []DistrictCounts
	ByType     [NumEventTypes]int64
	Failures   int64
	Total      int64
	// usersSeen is a bitset over popsim.UserID.
	usersSeen []uint64
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
	w := int(e.User / 64)
	if w >= len(a.usersSeen) {
		a.growUsers(w + 1)
	}
	a.usersSeen[w] |= 1 << (e.User % 64)
}

// growUsers extends the user bitset to n words.
func (a *Aggregator) growUsers(n int) {
	a.usersSeen = append(a.usersSeen, make([]uint64, n-len(a.usersSeen))...)
}

// Merge folds another aggregator over the same topology into a. Every
// aggregate is an integer count or a distinct-user set, so merging is
// exact: partitioning an event stream across shard-local aggregators and
// merging them — in any order — reproduces a single aggregator over the
// whole stream.
func (a *Aggregator) Merge(o *Aggregator) {
	a.Total += o.Total
	a.Failures += o.Failures
	for t := range o.ByType {
		a.ByType[t] += o.ByType[t]
	}
	for d := range o.ByDistrict {
		dc, oc := &a.ByDistrict[d], &o.ByDistrict[d]
		dc.Total += oc.Total
		dc.Failures += oc.Failures
		for t := range oc.ByType {
			dc.ByType[t] += oc.ByType[t]
		}
	}
	if len(o.usersSeen) > len(a.usersSeen) {
		a.growUsers(len(o.usersSeen))
	}
	for w, bitsSet := range o.usersSeen {
		a.usersSeen[w] |= bitsSet
	}
}

// DistinctUsers returns how many distinct SIMs appeared in the feed.
func (a *Aggregator) DistinctUsers() int {
	n := 0
	for _, w := range a.usersSeen {
		n += bits.OnesCount64(w)
	}
	return n
}

// FailureRate returns the overall event failure fraction.
func (a *Aggregator) FailureRate() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Failures) / float64(a.Total)
}

// FilterReport reproduces the §2.3 population funnel: from all SIMs on
// the network down to the native-smartphone analysis population (the
// paper: ~22M native smartphone users retained, M2M and inbound roamers
// dropped).
type FilterReport struct {
	TotalSIMs         int
	Smartphones       int
	M2MDropped        int
	RoamersDropped    int
	NonSmartDropped   int
	NativeSmartphones int
}

// FilterPopulation applies the TAC-catalog and PLMN filters to the
// population, as the paper does before any mobility analysis.
func FilterPopulation(pop *popsim.Population, catalog *devices.Catalog) FilterReport {
	var r FilterReport
	for i := range pop.Users {
		u := &pop.Users[i]
		r.TotalSIMs++
		isSmart := catalog.IsSmartphone(u.Device.TAC)
		if isSmart {
			r.Smartphones++
		}
		switch {
		case u.Device.Class == devices.ClassM2M:
			r.M2MDropped++
		case !u.PLMN.IsNative():
			r.RoamersDropped++
		case !isSmart:
			r.NonSmartDropped++
		default:
			r.NativeSmartphones++
		}
	}
	return r
}

// RATShare accumulates connected time per RAT from traces, reproducing
// the §2.4 observation that users spend ~75% of their time on 4G cells.
type RATShare struct {
	gen     *Generator
	seconds [radio.NumRATs]float64
}

// NewRATShare builds the accumulator.
func NewRATShare(gen *Generator) *RATShare { return &RATShare{gen: gen} }

// ConsumeDay attributes each visit's dwell to a RAT using the same
// camping model the event generator uses.
func (r *RATShare) ConsumeDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	for i := range traces {
		t := &traces[i]
		u := r.gen.pop.User(t.User)
		src := rng.Stream2(r.gen.seed, uint64(t.User), uint64(day))
		for _, v := range t.Visits {
			tw := r.gen.topo.Tower(v.Tower())
			rat := r.gen.ratFor(u, tw, &src)
			r.seconds[rat] += float64(v.Seconds())
		}
	}
}

// Shares returns the fraction of connected time per RAT.
func (r *RATShare) Shares() [radio.NumRATs]float64 {
	var total float64
	for _, s := range r.seconds {
		total += s
	}
	var out [radio.NumRATs]float64
	if total == 0 {
		return out
	}
	for i, s := range r.seconds {
		out[i] = s / total
	}
	return out
}
