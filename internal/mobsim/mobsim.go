// Package mobsim simulates day-by-day trajectories for the synthetic
// population: for every agent and simulated day it produces the sequence
// of (tower, 4-hour bin, dwell seconds) visits that the paper's
// measurement infrastructure would observe for that user.
//
// The simulator is streaming by design: callers ask for one day at a
// time and aggregate, so memory stays flat regardless of the simulated
// horizon. Every agent-day is generated from an independent PRNG stream
// keyed by (seed, user, day), making any single agent-day reproducible in
// isolation — a property the tests rely on.
package mobsim

import (
	"repro/internal/census"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// DayTrace is the full set of visits of one agent over one day. Visits
// are ordered by bin; total seconds sum to 86,400.
type DayTrace struct {
	User   popsim.UserID
	Visits []Visit
}

// secondsPerBin is the length of one 4-hour bin.
const secondsPerBin = timegrid.BinHours * 3600

// Simulator generates day traces for a population under a scenario.
type Simulator struct {
	pop   *popsim.Population
	scen  *pandemic.Scenario
	topo  *radio.Topology
	model *census.Model
	seed  uint64

	// cols is the population's struct-of-arrays mirror: the per-agent
	// prologue runs once per agent per day, so it reads the dense
	// columns instead of dereferencing fat User structs.
	cols *popsim.Columns

	// homeAlt caches a per-user alternate tower near home, modelling the
	// cell-reselection churn phones exhibit while stationary.
	homeAlt []radio.TowerID

	// awayNames/awayWeights cache pandemic.RelocationDestinations, which
	// builds fresh slices on every call; the destination set is static.
	awayNames   []string
	awayWeights []float64
}

// New returns a simulator for the population under the scenario.
func New(pop *popsim.Population, scen *pandemic.Scenario, seed uint64) *Simulator {
	s := &Simulator{
		pop:   pop,
		scen:  scen,
		topo:  pop.Topology(),
		model: pop.Model(),
		seed:  rng.Hash64(seed ^ 0x5151),
		cols:  pop.Cols(),
	}
	// The alternate home tower is the best reselection neighbour at the
	// home site (radio propagation model), which is what an idle phone
	// actually bounces to. It depends only on the home tower, so it is
	// computed once per distinct home tower (-1 marks "not yet") rather
	// than once per user. ReselectionNeighbor scans without allocating,
	// so New allocates only the simulator, this memo, homeAlt and the
	// relocation tables, whatever the tower count.
	alt := make([]radio.TowerID, len(s.topo.Towers))
	for i := range alt {
		alt[i] = -1
	}
	s.homeAlt = make([]radio.TowerID, len(pop.Users))
	for i, ht := range s.cols.HomeTower {
		if alt[ht] < 0 {
			alt[ht] = s.topo.ReselectionNeighbor(s.topo.Tower(ht).Loc, ht)
		}
		s.homeAlt[i] = alt[ht]
	}
	s.awayNames, s.awayWeights = pandemic.RelocationDestinations()
	return s
}

// DayInto simulates all native smartphone agents for one day into buf,
// reusing its arena and builder scratch: once buf has warmed to the
// working size, a call performs no heap allocation. The result is
// deterministic and independent of any other day's simulation, and of
// whether buf is fresh or warm. The returned traces alias buf — they
// are valid until buf's next Reset or DayInto. Concurrent calls must
// use distinct buffers.
func (s *Simulator) DayInto(buf *DayBuffer, day timegrid.SimDay) []DayTrace {
	buf.Reset()
	native := s.pop.Native()
	buf.ReserveTraces(len(native)) // one trace per native agent
	for _, id := range native {
		s.buildUserDay(&buf.b, id, day)
		buf.b.flushTo(buf, id)
	}
	return buf.Traces()
}

// buildUserDay simulates one agent-day into the builder scratch; the
// visits stay staged per bin until flushTo flattens them.
func (s *Simulator) buildUserDay(b *dayBuilder, id popsim.UserID, day timegrid.SimDay) {
	cols := s.cols
	src := rng.Stream2(s.seed, uint64(id), uint64(day))

	b.reset(id, day, s)
	// Phones switched off overnight leave no night observations; the
	// decision is drawn first so the rest of the day's stream is stable.
	b.nightOff = src.Bool(cols.NightOff[id])

	// Relocation candidates live at their secondary residence for the
	// whole lockdown window (§3.4) — but only under scenarios whose
	// relocation toggle is on; RelocationActive is always false
	// otherwise, keeping candidates at home.
	if cols.Relocates[id] && s.scen.RelocationActive(day) {
		b.residenceTower = cols.RelocTower[id]
		b.residenceDistrict = cols.RelocDistrict[id]
		b.localDay(&src, 0.5) // quiet, mostly-home day at the destination
		return
	}

	// Weekend away-days (day trips / weekends in other counties).
	sd, inStudy := day.ToStudyDay()
	homeCounty := s.model.County(cols.HomeCounty[id])
	if day.IsWeekend() {
		p := 0.0
		if inStudy {
			p = s.scen.WeekendAwayProb(sd, homeCounty)
		} else {
			p = s.scen.WeekendAwayProb(0, homeCounty) // February baseline
		}
		if src.Bool(p) {
			b.awayDay(&src, sd, inStudy)
			return
		}
	}

	b.normalDay(&src, sd, inStudy)
}

// dayBuilder accumulates one agent-day. It is pure scratch: reset
// re-arms it for the next agent while the per-bin staging arrays and
// weight buffers keep their capacity, so steady-state building performs
// no allocation.
type dayBuilder struct {
	s    *Simulator
	id   popsim.UserID
	day  timegrid.SimDay
	bins [timegrid.BinsPerDay][]Visit
	used [timegrid.BinsPerDay]int32

	// u is the agent's full User record, resolved lazily by user():
	// quiet day shapes (relocation, away-day) never touch it, only the
	// anchor-driven paths pay for the wide struct access.
	u *popsim.User

	// homeTower mirrors cols.HomeTower[id] so fillResidence's inner loop
	// stays column-fed.
	homeTower radio.TowerID

	residenceTower    radio.TowerID
	residenceDistrict census.DistrictID
	// nightOff suppresses all observations in the night bins (00-08):
	// the device is powered off, so the probes see nothing.
	nightOff bool

	// weighted-choice scratch, reused across agents.
	weights  []float64
	counties []*census.County
}

// reset re-arms the builder for a new agent-day, keeping all capacity.
// Home geography comes from the population's dense columns.
func (b *dayBuilder) reset(id popsim.UserID, day timegrid.SimDay, s *Simulator) {
	b.s, b.id, b.day = s, id, day
	b.u = nil
	for i := range b.bins {
		b.bins[i] = b.bins[i][:0]
	}
	b.used = [timegrid.BinsPerDay]int32{}
	cols := s.cols
	b.homeTower = cols.HomeTower[id]
	b.residenceTower = b.homeTower
	b.residenceDistrict = cols.HomeDistrict[id]
	b.nightOff = false
}

// user resolves the agent's full record on first use.
func (b *dayBuilder) user() *popsim.User {
	if b.u == nil {
		b.u = b.s.pop.User(b.id)
	}
	return b.u
}

// add records dwell seconds at tower in bin, clipping to the bin budget.
func (b *dayBuilder) add(bin timegrid.Bin, tower radio.TowerID, seconds int32, atRes bool) {
	free := int32(secondsPerBin) - b.used[bin]
	if seconds > free {
		seconds = free
	}
	if seconds <= 0 {
		return
	}
	b.used[bin] += seconds
	b.bins[bin] = append(b.bins[bin], MakeVisit(tower, bin, seconds, atRes))
}

// fillResidence tops every bin up to its 4-hour budget with dwell at the
// current residence, with occasional reselection onto the alternate home
// tower (idle phones bounce between overlapping cells).
func (b *dayBuilder) fillResidence(src *rng.Source) {
	alt := b.s.homeAlt[b.id]
	for bin := timegrid.Bin(0); int(bin) < timegrid.BinsPerDay; bin++ {
		free := int32(secondsPerBin) - b.used[bin]
		if free <= 0 {
			continue
		}
		if alt != b.residenceTower && b.residenceTower == b.homeTower && src.Bool(0.25) {
			churn := int32(float64(free) * src.Range(0.1, 0.3))
			b.add(bin, alt, churn, false)
			free -= churn
		}
		b.add(bin, b.residenceTower, free, true)
	}
}

// firstBin returns the first observable bin of the day. Night-off days
// drop the night bins entirely: an off device is invisible to the
// network.
func (b *dayBuilder) firstBin() int {
	if b.nightOff {
		return 2 // bins 0 and 1 cover 00:00-08:00
	}
	return 0
}

// visitCount returns the number of observable visits staged.
func (b *dayBuilder) visitCount() int {
	n := 0
	for bin := b.firstBin(); bin < timegrid.BinsPerDay; bin++ {
		n += len(b.bins[bin])
	}
	return n
}

// flushTo flattens the staged bins into the buffer's arena as one trace,
// in bin order — exactly the order finish() used to emit. Room for the
// whole trace is reserved once, so the bin appends never grow a slice.
func (b *dayBuilder) flushTo(buf *DayBuffer, id popsim.UserID) {
	buf.BeginUser(id)
	buf.reserve(b.visitCount())
	for bin := b.firstBin(); bin < timegrid.BinsPerDay; bin++ {
		buf.open = append(buf.open, b.bins[bin]...)
	}
}

// activity returns the agent's out-of-home activity level for the day.
func (b *dayBuilder) activity(sd timegrid.StudyDay, inStudy bool) float64 {
	if !inStudy {
		return 1
	}
	return b.s.scen.RegionalActivity(sd, b.s.model.County(b.s.cols.HomeCounty[b.id]))
}

// baseLeisureTrips returns the expected discretionary trips per day for
// the profile on a baseline day.
func baseLeisureTrips(p popsim.Profile, weekend bool) float64 {
	var t float64
	switch p {
	case popsim.OfficeWorker:
		t = 1.0
	case popsim.KeyWorker:
		t = 0.7
	case popsim.Student:
		t = 1.3
	case popsim.Retired:
		t = 0.9
	default:
		t = 0.8
	}
	if weekend {
		t *= 1.6
	}
	return t
}

// leisureFloor returns the minimum leisure multiplier a cluster retains
// under lockdown: inner-city clusters keep moving locally (groceries,
// exercise around dense commercial areas — the paper's explanation for
// Ethnicity Central's small entropy drop), rural residents keep walking.
func leisureFloor(c census.Cluster) float64 {
	switch c {
	case census.EthnicityCentral:
		return 0.50
	case census.Cosmopolitans:
		return 0.28
	case census.RuralResidents:
		return 0.30
	default:
		return 0.20
	}
}

// workAttendance returns the probability the agent travels to the work
// anchor on this day.
func (b *dayBuilder) workAttendance(a float64, sd timegrid.StudyDay, inStudy, weekend bool) float64 {
	switch b.s.cols.Profile[b.id] {
	case popsim.OfficeWorker:
		if weekend {
			return 0.06 * a
		}
		// Office work collapses quadratically with activity: WFH advice
		// plus closures empty the offices.
		return 0.85 * a * a
	case popsim.KeyWorker:
		p := 0.90 * (0.62 + 0.38*a)
		if weekend {
			p *= 0.35
		}
		return p
	case popsim.Student:
		if weekend {
			return 0
		}
		if inStudy && sd >= timegrid.VenueClosures {
			return 0 // schools closed 20 March
		}
		return 0.92
	default:
		return 0
	}
}

// normalDay builds a regular day at the primary residence.
func (b *dayBuilder) normalDay(src *rng.Source, sd timegrid.StudyDay, inStudy bool) {
	u := b.user()
	weekend := b.day.IsWeekend()
	a := b.activity(sd, inStudy)

	working := false
	if u.Worker() && len(u.Anchors) > 1 && u.Anchors[1].Kind == popsim.AnchorWork {
		if src.Bool(b.workAttendance(a, sd, inStudy, weekend)) {
			working = true
			work := u.Anchors[1]
			// Bins 2 and 3 (08–16) at the workplace; bin 4 splits
			// between workplace and the journey home.
			b.add(2, work.Tower, secondsPerBin, false)
			b.add(3, work.Tower, secondsPerBin, false)
			b.add(4, work.Tower, int32(src.IntRange(3600, 9000)), false)
			// Commute transit: a short dwell on a tower of the work
			// district (a different sector/site than the office).
			transit := b.s.topo.PickTower(work.District, b.day, src)
			b.add(1, transit, int32(src.IntRange(600, 1800)), false)
		}
	}

	// Discretionary trips.
	mult := a
	if floor := leisureFloor(u.Cluster); mult < floor {
		mult = floor
	}
	expected := baseLeisureTrips(u.Profile, weekend) * mult
	if working {
		expected *= 0.5
	}
	trips := src.Poisson(expected)
	for i := 0; i < trips; i++ {
		b.leisureTrip(src, a, inStudy)
	}

	// Evening outing (pre-lockdown social life).
	if !inStudy || a > 0.8 {
		if src.Bool(0.25 * a) {
			b.leisureTripInBin(src, 5, a, inStudy)
		}
	}

	b.fillResidence(src)
}

// leisureBinWeights and localBinWeights are the static daytime-bin
// preferences of discretionary and local trips; package-level so the hot
// path never rebuilds them.
var (
	leisureBinWeights = [...]float64{0, 0, 1.0, 1.3, 1.4, 0.7}
	localBinWeights   = [...]float64{0, 0, 1, 1.3, 1.2, 0.5}
)

// leisureTrip places one discretionary trip in a daytime bin.
func (b *dayBuilder) leisureTrip(src *rng.Source, a float64, inStudy bool) {
	bin := timegrid.Bin(src.Pick(leisureBinWeights[:]))
	b.leisureTripInBin(src, bin, a, inStudy)
}

// leisureTripInBin places one trip in the given bin: usually to one of
// the agent's anchors, sometimes exploration of a nearby tower (the
// source of entropy beyond the anchor set). Under low activity the
// exploration range contracts to the home district.
func (b *dayBuilder) leisureTripInBin(src *rng.Source, bin timegrid.Bin, a float64, inStudy bool) {
	u := b.user()
	var tower radio.TowerID
	explore := src.Bool(0.18)
	if explore || len(u.Anchors) <= 1 {
		// Exploration: a random tower near home; under restrictions it
		// stays within the home district.
		d := b.residenceDistrict
		if a > 0.7 && src.Bool(0.4) {
			// Pre-pandemic exploration can reach a neighbouring district
			// of the same county.
			c := b.s.model.County(u.HomeCounty)
			d = c.Districts[src.Intn(len(c.Districts))]
		}
		tower = b.s.topo.PickTower(d, b.day, src)
	} else {
		// Weighted anchor choice among discretionary anchors; distant
		// anchors are suppressed under restrictions.
		cands := u.Anchors[1:]
		weights := b.weights[:0]
		homeLoc := b.s.topo.Tower(u.HomeTower).Loc
		for _, anc := range cands {
			if anc.Kind == popsim.AnchorWork {
				weights = append(weights, 0.1) // work is handled separately
				continue
			}
			w := anc.Weight
			if inStudy && a < 0.7 {
				dist := b.s.topo.Tower(anc.Tower).Loc.Dist(homeLoc)
				if dist > 5 {
					// Long discretionary trips vanish under lockdown.
					w *= 0.12
				}
			}
			weights = append(weights, w)
		}
		b.weights = weights
		tower = cands[src.Pick(weights)].Tower
	}
	dur := int32(src.IntRange(2400, 7200))
	b.add(bin, tower, dur, false)
}

// awayDay builds a weekend-away day: night at home, the daytime in a
// destination county. Londoners head for the home counties and the
// south coast (the Fig. 7 destination set); residents elsewhere visit
// countryside within a plausible day-trip range.
func (b *dayBuilder) awayDay(src *rng.Source, sd timegrid.StudyDay, inStudy bool) {
	county := b.pickAwayCounty(src, sd, inStudy)
	if county == nil || county.ID == b.s.cols.HomeCounty[b.id] {
		b.normalDay(src, sd, inStudy)
		return
	}
	// Visit one or two districts of the destination during bins 2–4.
	d1 := county.Districts[src.Intn(len(county.Districts))]
	t1 := b.s.topo.PickTower(d1, b.day, src)
	b.add(2, t1, secondsPerBin, false)
	b.add(3, t1, secondsPerBin, false)
	if src.Bool(0.5) {
		d2 := county.Districts[src.Intn(len(county.Districts))]
		t2 := b.s.topo.PickTower(d2, b.day, src)
		b.add(4, t2, int32(src.IntRange(3600, 10800)), false)
	} else {
		b.add(4, t1, int32(src.IntRange(3600, 10800)), false)
	}
	b.fillResidence(src)
}

// pickAwayCounty chooses the weekend-trip destination.
func (b *dayBuilder) pickAwayCounty(src *rng.Source, sd timegrid.StudyDay, inStudy bool) *census.County {
	model := b.s.model
	homeCounty := b.s.cols.HomeCounty[b.id]
	homeKind := model.County(homeCounty).Kind
	if homeKind == census.KindMetroCore || homeKind == census.KindMetroSuburb {
		names, base := b.s.awayNames, b.s.awayWeights
		w := b.weights[:0]
		for i := range base {
			bias := 1.0
			if inStudy {
				bias = b.s.scen.ExodusDestinationBias(sd, names[i])
			}
			w = append(w, base[i]*bias)
		}
		b.weights = w
		c, ok := model.CountyByName(names[src.Pick(w)])
		if !ok {
			return nil
		}
		return c
	}
	// Elsewhere: countryside within day-trip range, nearer is likelier.
	const tripKm = 90.0
	homeLoc := model.County(homeCounty).Area.Center
	cands := b.counties[:0]
	weights := b.weights[:0]
	for ci := range model.Counties {
		c := &model.Counties[ci]
		if c.ID == homeCounty {
			continue
		}
		if c.Kind != census.KindRural && c.Kind != census.KindMixed && c.Kind != census.KindCoastal {
			continue
		}
		dist := c.Area.Center.Dist(homeLoc)
		if dist > tripKm {
			continue
		}
		cands = append(cands, c)
		weights = append(weights, 1/(dist+10))
	}
	b.counties, b.weights = cands, weights
	if len(cands) == 0 {
		return nil
	}
	return cands[src.Pick(weights)]
}

// localDay builds a quiet day around the current residence (used for
// relocated agents): a few local trips, most time at the residence.
func (b *dayBuilder) localDay(src *rng.Source, tripLevel float64) {
	trips := src.Poisson(0.8 * tripLevel)
	for i := 0; i < trips; i++ {
		bin := timegrid.Bin(src.Pick(localBinWeights[:]))
		t := b.s.topo.PickTower(b.residenceDistrict, b.day, src)
		b.add(bin, t, int32(src.IntRange(2400, 6000)), false)
	}
	b.fillResidence(src)
}
