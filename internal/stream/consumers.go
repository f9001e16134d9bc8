// Sharded adapters for the serial analyzers of internal/core and
// internal/signaling. Each one splits its analyzer's per-day work into a
// parallel per-record half (run in the shard stage) and an exact fold
// (run in the serial merge stage), so the aggregates are bit-identical
// to the serial pipeline's — see the package comment for the invariants.
package stream

import (
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mobsim"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/signaling"
	"repro/internal/timegrid"
)

// --- mobility -----------------------------------------------------------

// Mobility shards the §2.3 per-user metric computation (merge visits,
// top-N filter, entropy, radius of gyration — the expensive half of
// core.MobilityAnalyzer.ConsumeDay) across workers, then folds the
// results into the wrapped analyzer in canonical trace order, which
// keeps every floating point accumulation identical to the serial path.
type Mobility struct {
	a       *core.MobilityAnalyzer
	topo    *radio.Topology
	topN    int
	mergers []core.VisitMerger // one per shard: ShardDay calls run concurrently
	traces  []mobsim.DayTrace
	metrics []core.DayMetrics
	inStudy bool
}

// NewMobility wraps an analyzer for sharded consumption across the given
// number of shards (the engine's Config.Shards after WithDefaults).
func NewMobility(a *core.MobilityAnalyzer, shards int) *Mobility {
	return &Mobility{
		a:       a,
		topo:    a.Population().Topology(),
		topN:    a.TopN(),
		mergers: make([]core.VisitMerger, shards),
	}
}

// BeginDay sizes the per-day metric buffer.
func (m *Mobility) BeginDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	_, m.inStudy = day.ToStudyDay()
	if !m.inStudy {
		return
	}
	m.traces = traces
	if cap(m.metrics) < len(traces) {
		m.metrics = make([]core.DayMetrics, len(traces))
	}
	m.metrics = m.metrics[:len(traces)]
}

// ShardDay computes the metrics of the shard's users. Writes land on
// disjoint indices of the shared buffer, so shards never contend; each
// shard reuses its own merge scratch.
func (m *Mobility) ShardDay(shard int, _ timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	if !m.inStudy {
		return
	}
	mg := &m.mergers[shard]
	for _, i := range idx {
		m.metrics[i] = mg.DayMetrics(&traces[i], m.topo, m.topN)
	}
}

// EndDay folds the day's metrics into the analyzer in trace order.
func (m *Mobility) EndDay(day timegrid.SimDay) {
	if !m.inStudy {
		return
	}
	m.a.ConsumeDayMetrics(day, m.traces, m.metrics)
	m.traces = nil
}

// --- mobility matrix ----------------------------------------------------

// Matrix shards the §3.4 Inner-London matrix: the per-user top-N county
// sets are computed in parallel and folded back as exact unit-count
// increments.
type Matrix struct {
	m        *core.MobilityMatrix
	mergers  []core.VisitMerger // one per shard: ShardDay calls run concurrently
	inCohort []bool
	counties [][]census.CountyID
	sd       timegrid.StudyDay
	inStudy  bool
}

// NewMatrix wraps a matrix for sharded consumption across the given
// number of shards (the engine's Config.Shards after WithDefaults).
func NewMatrix(m *core.MobilityMatrix, shards int) *Matrix {
	return &Matrix{m: m, mergers: make([]core.VisitMerger, shards)}
}

// BeginDay sizes and clears the per-day buffers. The per-index county
// slices keep their capacity across days (index i always belongs to the
// same user), so steady-state days append without allocating.
func (x *Matrix) BeginDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	x.sd, x.inStudy = day.ToStudyDay()
	if !x.inStudy {
		return
	}
	n := len(traces)
	if cap(x.inCohort) < n {
		x.inCohort = make([]bool, n)
		x.counties = make([][]census.CountyID, n)
	}
	x.inCohort = x.inCohort[:n]
	x.counties = x.counties[:n]
	for i := 0; i < n; i++ {
		x.inCohort[i] = false
	}
}

// ShardDay resolves the county sets of the shard's cohort members, each
// shard reusing its own merge scratch and the per-index county storage.
func (x *Matrix) ShardDay(shard int, _ timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	if !x.inStudy {
		return
	}
	mg := &x.mergers[shard]
	for _, i := range idx {
		cs, ok := x.m.UserCountiesInto(mg, &traces[i], x.counties[i][:0])
		x.counties[i] = cs
		x.inCohort[i] = ok
	}
}

// EndDay folds the cohort's county sets into the matrix.
func (x *Matrix) EndDay(timegrid.SimDay) {
	if !x.inStudy {
		return
	}
	for i, in := range x.inCohort {
		if in {
			x.m.ConsumeUserCounties(x.sd, x.counties[i])
		}
	}
}

// --- home detection -----------------------------------------------------

// Homes shards the §2.3 night-time home detection: every shard owns a
// full core.HomeDetector holding only its users' tallies, and Detect
// has every shard write its homes into one map. Detector state is
// strictly per-user and users are pinned to shards, so that map equals
// a single detector fed the whole stream.
type Homes struct {
	dets []*core.HomeDetector
}

// NewHomes builds a sharded detector with the paper's parameters.
func NewHomes(topo *radio.Topology, shards int) *Homes {
	h := &Homes{dets: make([]*core.HomeDetector, shards)}
	for i := range h.dets {
		h.dets[i] = core.NewHomeDetector(topo)
	}
	return h
}

// BeginDay sizes every shard's head map on the first February day: a
// shard's share of the day's traces, plus an eighth for hash skew.
func (h *Homes) BeginDay(day timegrid.SimDay, traces []mobsim.DayTrace) {
	if !day.InFebruary() {
		return
	}
	n := len(traces) / len(h.dets)
	for _, det := range h.dets {
		det.Reserve(n + n/8)
	}
}

// ShardDay feeds the shard's users into its detector.
func (h *Homes) ShardDay(shard int, day timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	det := h.dets[shard]
	for _, i := range idx {
		det.ConsumeTrace(day, &traces[i])
	}
}

// EndDay implements TraceSharder.
func (h *Homes) EndDay(timegrid.SimDay) {}

// Detect finalises detection across all shards into one map sized to
// the shards' total user count. Shards hold disjoint users, so no home
// is written twice.
func (h *Homes) Detect() map[popsim.UserID]core.Home {
	n := 0
	for _, det := range h.dets {
		n += det.Users()
	}
	out := make(map[popsim.UserID]core.Home, n)
	for _, det := range h.dets {
		det.DetectInto(out)
	}
	return out
}

// --- control-plane signaling --------------------------------------------

// Signaling shards §2.2 control-plane analytics: each shard generates
// the events of its users straight from their traces (the generator is
// per-user deterministic) and folds them into a shard-local
// signaling.Aggregator; every aggregate is an integer count, so the
// shard totals add up exactly. It also implements EventSharder, so a
// persisted event feed can be dispatched to the same shard-local
// aggregators instead.
type Signaling struct {
	gen  *signaling.Generator
	aggs []*signaling.Aggregator
	// background re-creates the M2M / inbound-roamer event floor that
	// Generator.Day adds on top of the native traces; the non-native
	// users are pre-partitioned across shards at construction.
	background [][]int
}

// NewSignaling builds a sharded aggregation stage over a generator.
// When background is true, shards also emit the M2M and roamer event
// floor, matching signaling.Generator.Day. The topology parameter is
// unused: the aggregates are national, so no event needs its district.
func NewSignaling(gen *signaling.Generator, _ *radio.Topology, shards int, background bool) *Signaling {
	s := &Signaling{gen: gen, aggs: make([]*signaling.Aggregator, shards)}
	for i := range s.aggs {
		s.aggs[i] = signaling.NewAggregator()
	}
	if background {
		s.background = make([][]int, shards)
		pop := gen.Population()
		for i := range pop.Users {
			u := &pop.Users[i]
			if u.Kind == popsim.NativeM2M || u.Kind == popsim.InboundRoamer {
				sh := ShardOfUser(uint64(u.ID), shards)
				s.background[sh] = append(s.background[sh], i)
			}
		}
	}
	return s
}

// BeginDay implements TraceSharder.
func (s *Signaling) BeginDay(timegrid.SimDay, []mobsim.DayTrace) {}

// ShardDay generates and aggregates the shard's events.
func (s *Signaling) ShardDay(shard int, day timegrid.SimDay, traces []mobsim.DayTrace, idx []int) {
	agg := s.aggs[shard]
	for _, i := range idx {
		s.gen.UserDay(&traces[i], day, agg.Consume)
	}
	if s.background != nil {
		pop := s.gen.Population()
		for _, ui := range s.background[shard] {
			u := &pop.Users[ui]
			switch u.Kind {
			case popsim.NativeM2M:
				s.gen.MachineDay(u, day, agg.Consume)
			case popsim.InboundRoamer:
				s.gen.RoamerDay(u, day, agg.Consume)
			}
		}
	}
}

// EndDay implements TraceSharder.
func (s *Signaling) EndDay(timegrid.SimDay) {}

// Events returns an EventSharder view over the same shard-local
// aggregators, for replaying a persisted event feed instead of
// generating events from traces. (A separate view is needed because the
// TraceSharder and EventSharder method sets share names.)
func (s *Signaling) Events() EventSharder { return signalingEvents{s} }

type signalingEvents struct{ s *Signaling }

func (e signalingEvents) BeginDay(timegrid.SimDay, []signaling.Event) {}

func (e signalingEvents) ShardDay(shard int, _ timegrid.SimDay, events []signaling.Event, idx []int) {
	agg := e.s.aggs[shard]
	for _, i := range idx {
		agg.Consume(events[i])
	}
}

func (e signalingEvents) EndDay(timegrid.SimDay) {}

// Totals returns the cumulative event and failure counts across all
// shards — O(shards), allocation-free, for rolling monitors that only
// need the headline numbers.
func (s *Signaling) Totals() (events, failures int64) {
	for _, a := range s.aggs {
		events += a.Total
		failures += a.Failures
	}
	return events, failures
}
