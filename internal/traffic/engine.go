package traffic

import (
	"slices"
	"sort"

	"repro/internal/census"
	"repro/internal/mobsim"
	"repro/internal/obs"
	"repro/internal/pandemic"
	"repro/internal/popsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/timegrid"
)

// CellDay is the daily KPI record of one 4G cell: for every metric, the
// median of its 24 hourly values, exactly the §2.4 reduction ("for all
// the hourly metrics, we further aggregate them per day and extract the
// (hourly) median value per cell").
type CellDay struct {
	Cell   radio.CellID
	Values [NumMetrics]float64
}

// towerHour accumulates agent-level demand at one tower in one hour.
type towerHour struct {
	presSec   float64 // user-seconds attached
	activeSec float64 // user-seconds with active DL transmission
	dlMB      float64 // downlink data demand (QCI 2–8), agent units
	ulMB      float64 // uplink data demand (QCI 2–8), agent units
	voiceMin  float64 // voice minutes (QCI 1), agent units
}

// zeroTowerDay is the read-only accumulator tile of a tower nobody
// visited: the reduction reads it wherever a tower's epoch stamp is
// stale, so untouched towers never need a reset (or storage traffic) to
// present their correct all-zero demand.
var zeroTowerDay [timegrid.HoursPerDay]towerHour

// accTile is one epoch-stamped accumulator grid: per-tower hourly demand
// plus the bookkeeping that makes the per-day reset O(touched towers)
// instead of an O(towers×24) memset. A tower's row is valid for the
// current day iff stamp[t] == epoch; tower() lazily zeroes a row on its
// first touch of the day and journals it in touched, so both the reset
// and the later scans walk only the towers that actually saw demand.
type accTile struct {
	acc     [][timegrid.HoursPerDay]towerHour
	stamp   []uint64
	epoch   uint64
	touched []int32
}

// hourTables holds the per-user-day invariant products hoisted out of
// the visit loop: dl[h] = dlPerDay·diurnalData[h] and
// voice[h] = voicePerDay·diurnalVoice[h], computed once per user in
// left-to-right order so the inner-loop results stay bit-identical to
// the unhoisted expressions.
type hourTables struct {
	dl    [timegrid.HoursPerDay]float64
	voice [timegrid.HoursPerDay]float64
}

func newAccTile(towers int) accTile {
	return accTile{
		acc:     make([][timegrid.HoursPerDay]towerHour, towers),
		stamp:   make([]uint64, towers),
		touched: make([]int32, 0, towers),
	}
}

// beginDay opens a new accumulation epoch: every row becomes stale at
// the cost of one counter increment and a journal truncation.
func (t *accTile) beginDay() {
	t.epoch++
	t.touched = t.touched[:0]
}

// tower returns the tile row of ti for the current epoch, zeroing and
// journaling it on first touch.
func (t *accTile) tower(ti int32) *[timegrid.HoursPerDay]towerHour {
	if t.stamp[ti] != t.epoch {
		t.stamp[ti] = t.epoch
		t.acc[ti] = [timegrid.HoursPerDay]towerHour{}
		t.touched = append(t.touched, ti)
	}
	return &t.acc[ti]
}

// hours returns the row to *read* for ti: the accumulated demand when
// the tower was touched this epoch, the shared zero tile otherwise.
func (t *accTile) hours(ti int) *[timegrid.HoursPerDay]towerHour {
	if t.stamp[ti] == t.epoch {
		return &t.acc[ti]
	}
	return &zeroTowerDay
}

// dayFactors are the scenario-dependent demand factors of one simulated
// day, resolved once in the day prologue so neither the accumulation nor
// the reduction consults the scenario per record.
type dayFactors struct {
	dataF, homeF, voiceF, throttleF float64
	// confBoost is the conferencing uplink boost on at-residence data
	// (grows with the activity deficit: people confined at home hold
	// video calls); homeBoost the confinement growth of total at-home
	// appetite.
	confBoost, homeBoost float64
}

// visitClass folds the offload/boost factors of one visit class —
// non-residence, urban residence, rural residence — computed once per
// day so the per-visit body only selects a struct.
type visitClass struct {
	offEng  float64 // engagement scale ("active user" share on cellular)
	offDem  float64 // demand scale (offload × confinement boost)
	ulBoost float64 // uplink conferencing boost
}

// Engine converts day traces into per-cell daily KPI records.
type Engine struct {
	pop    *popsim.Population
	topo   *radio.Topology
	scen   *pandemic.Scenario
	params Params
	seed   uint64

	subsPerAgent float64
	// baselineBusyVoiceMin is the national busy-hour voice demand at
	// baseline, in agent units; interconnect capacity is dimensioned
	// against it.
	baselineBusyVoiceMin float64
	// towerRural marks towers serving Rural Residents districts, where
	// fixed broadband is weaker and WiFi offload correspondingly so.
	towerRural []bool

	// tile is the accumulator grid the day's demand folds into.
	tile accTile
	// tab is the per-user hour-factor scratch of the accumulation.
	tab hourTables

	// hv stages the ≤24 hourly values of each metric while one cell's
	// records are reduced to their daily medians (hvN counts the staged
	// values; DLThroughput skips undefined hours). Fixed-size arrays:
	// the reduction never touches the heap and the median runs as a
	// bounded insertion select instead of a library sort.
	hv  [NumMetrics][timegrid.HoursPerDay]float64
	hvN [NumMetrics]int
	// weights stages the per-tower sector load split; warm after the
	// first day, so DayAppend runs allocation-free.
	weights []float64
	// ch is the record handed to emit callbacks; it lives on the engine
	// because its address crosses the callback boundary, which would
	// otherwise force a heap escape per day. Callbacks already must copy
	// what they keep — the record is rewritten every cell-hour.
	ch CellHour

	// obs holds the engine's resolved metric handles; nil when the engine
	// is uninstrumented (the default). Clones share the pointer, so every
	// worker clone of an instrumented engine aggregates into the same
	// metrics.
	obs *engineObs
}

// engineObs bundles the engine's metric handles, resolved once by
// Instrument so the day loop never touches the registry.
type engineObs struct {
	reg    *obs.Registry
	dayNs  *obs.Histogram // traffic.day_ns: whole DayAppend latency
	visits *obs.Counter   // traffic.visits: visit records accumulated
}

func (o *engineObs) day() *obs.Histogram {
	if o == nil {
		return nil
	}
	return o.dayNs
}

func (o *engineObs) total() *obs.Counter {
	if o == nil {
		return nil
	}
	return o.visits
}

// Instrument resolves the engine's metric handles from r and returns the
// receiver. A nil registry leaves the engine uninstrumented; repeated
// calls with the same registry are no-ops, so sweep workers can
// instrument once and rebind scenarios freely. Instrumentation only
// observes: records stay bit-identical to an uninstrumented engine's.
func (e *Engine) Instrument(r *obs.Registry) *Engine {
	if r == nil {
		return e
	}
	if e.obs != nil && e.obs.reg == r {
		return e
	}
	e.obs = &engineObs{
		reg:    r,
		dayNs:  r.Histogram("traffic.day_ns", 1),
		visits: r.Counter("traffic.visits"),
	}
	return e
}

// NewEngine builds the KPI engine.
func NewEngine(pop *popsim.Population, scen *pandemic.Scenario, params Params, seed uint64) *Engine {
	e := &Engine{
		pop:    pop,
		topo:   pop.Topology(),
		scen:   scen,
		params: params,
		seed:   rng.Hash64(seed ^ 0xE16E),
	}
	e.subsPerAgent = params.MarketShare / pop.Scale()
	e.baselineBusyVoiceMin = float64(len(pop.Native())) * params.VoiceMinPerUserDay * peakVoiceHourShare()
	e.tile = newAccTile(len(e.topo.Towers))
	model := pop.Model()
	e.towerRural = make([]bool, len(e.topo.Towers))
	for i := range e.topo.Towers {
		d := model.District(e.topo.Towers[i].District)
		e.towerRural[i] = d.Cluster == census.RuralResidents
	}
	return e
}

// Params returns the engine's model constants.
func (e *Engine) Params() Params { return e.params }

// Clone returns an engine with the same model parameters and seed but an
// independent scratch area. Day is deterministic in (construction, day,
// traces) and never mutates anything but the scratch, so clones produce
// bit-identical records to the original and may run concurrently, one
// per worker. Clone snapshots the engine struct — including the scratch
// headers Day/DayAppend rewrite — so it must not run concurrently with
// a Day on the receiver: take every clone before starting the workers.
func (e *Engine) Clone() *Engine {
	c := *e
	c.tile = newAccTile(len(e.tile.acc))
	c.weights = nil
	c.hvN = [NumMetrics]int{}
	return &c
}

// Rebind swaps the engine's scenario in place and returns the receiver.
// Everything else an engine precomputes at construction — the
// subscriber scale, the interconnect dimensioning, the rural-tower
// marks — is scenario-independent, and the scenario is only consulted
// in the day prologue, so a rebound engine produces records
// bit-identical to NewEngine(pop, scen, params, seed) while keeping its
// warm scratch (the per-tower hourly accumulators dominate an engine's
// footprint). The engine must not be running a Day when rebound; sweep
// workers rebind between scenario runs.
func (e *Engine) Rebind(scen *pandemic.Scenario) *Engine {
	e.scen = scen
	return e
}

// InterconnectCapacity returns the interconnect voice capacity (agent
// units, minutes per hour) in effect on the given simulated day.
func (e *Engine) InterconnectCapacity(day timegrid.SimDay) float64 {
	headroom := e.params.InterconnectHeadroom
	if sd, ok := day.ToStudyDay(); ok && sd >= e.params.InterconnectUpgradeDay {
		headroom = e.params.InterconnectHeadroomAfter
	}
	return e.baselineBusyVoiceMin * headroom
}

// CellHour is the raw hourly KPI record of one 4G cell, before the §2.4
// daily-median reduction; DayHourly exposes it for analyses that need
// sub-daily resolution. A zero DLThroughput marks an hour with no
// active users (throughput undefined).
type CellHour struct {
	Cell   radio.CellID
	Hour   int
	Values [NumMetrics]float64
}

// DayAppend runs the KPI model for one simulated day over the given
// traces and appends one record per active 4G cell to dst (pass
// prev[:0] to reuse capacity): for each metric the median of its 24
// hourly values. Deterministic in (engine construction, day, traces).
// The hourly staging buffers live on the engine and the medians are
// taken by a fixed-24 insertion select, so a warm engine produces a day
// of records without heap allocation. dst is sized once to the 4G cell
// count before the first record is appended, so a nil dst costs exactly
// one allocation.
func (e *Engine) DayAppend(dst []CellDay, day timegrid.SimDay, traces []mobsim.DayTrace) []CellDay {
	sp := obs.Start(e.obs.day())
	f := e.dayFactorsFor(day)
	nv := e.accumulate(day, &f, traces)
	dst = e.reduceAppend(dst, day, &f)
	e.obs.total().Add(int64(nv))
	sp.End()
	return dst
}

// reduceAppend runs the reduction over the accumulated tile, staging each
// cell's 24 hourly values and appending its daily-median record to dst.
// A day emits at most one record per 4G cell, so dst is grown once to
// that count up front: a cold destination is allocated once, a warm one
// never. (slices.Grow would cost two allocations under -race, which
// turns off the compiler's append-of-make fusion.)
func (e *Engine) reduceAppend(dst []CellDay, day timegrid.SimDay, f *dayFactors) []CellDay {
	if n := len(e.topo.Cells4G()); cap(dst)-len(dst) < n {
		dst = append(make([]CellDay, 0, len(dst)+n), dst...)
	}
	var cur radio.CellID = -1
	flush := func() {
		if cur < 0 {
			return
		}
		var cd CellDay
		cd.Cell = cur
		for m := 0; m < NumMetrics; m++ {
			cd.Values[m] = median24(&e.hv[m], e.hvN[m])
		}
		dst = append(dst, cd)
	}
	e.reduce(day, f, func(ch *CellHour) {
		if ch.Cell != cur {
			flush()
			cur = ch.Cell
			e.hvN = [NumMetrics]int{}
		}
		for m := 0; m < NumMetrics; m++ {
			if m == int(DLThroughput) && ch.Values[m] == 0 {
				continue // hour without active users: throughput undefined
			}
			e.hv[m][e.hvN[m]] = ch.Values[m]
			e.hvN[m]++
		}
	})
	flush()
	return dst
}

// DayHourly runs the KPI model at hourly resolution, emitting one record
// per (active 4G cell, hour). Records of one cell arrive consecutively,
// hours ascending.
func (e *Engine) DayHourly(day timegrid.SimDay, traces []mobsim.DayTrace, emit func(*CellHour)) {
	e.forEachCellHour(day, traces, emit)
}

// forEachCellHour is the engine core: the day prologue, demand
// accumulation into the tile, and the per-cell-hour reduction.
func (e *Engine) forEachCellHour(day timegrid.SimDay, traces []mobsim.DayTrace, emit func(*CellHour)) {
	f := e.dayFactorsFor(day)
	e.accumulate(day, &f, traces)
	e.reduce(day, &f, emit)
}

// dayFactorsFor resolves the scenario once for the whole day.
func (e *Engine) dayFactorsFor(day timegrid.SimDay) dayFactors {
	p := &e.params
	f := dayFactors{dataF: 1, homeF: 1, voiceF: 1, throttleF: 1}
	activity := 1.0
	if sd, ok := day.ToStudyDay(); ok {
		f.dataF = e.scen.DataFactor(sd)
		f.homeF = e.scen.HomeCellularFactor(sd)
		f.voiceF = e.scen.VoiceFactor(sd)
		f.throttleF = e.scen.ThrottleFactor(sd)
		activity = e.scen.Activity(sd)
	}
	// Conferencing boost on at-residence uplink grows with the activity
	// deficit (people confined at home hold video calls), and total
	// at-home appetite grows with confinement.
	f.confBoost = 1 + (p.ConferencingULBoost-1)*(1-activity)
	f.homeBoost = 1 + p.HomeDemandBoost*(1-activity)
	return f
}

// accumulate opens a new tile epoch and folds the day's traces into it:
// the data-oriented demand accumulation. The per-day factor structs and
// the per-user hour tables are hoisted out of the visit loop (preserving
// the original left-to-right float association, so records stay
// bit-identical), which collapses the per-visit-hour body to five fused
// multiply-adds on table lookups. Returns the number of visit records
// folded, which the instrumented path feeds to the visit counter.
func (e *Engine) accumulate(day timegrid.SimDay, f *dayFactors, traces []mobsim.DayTrace) int {
	p := &e.params
	t := &e.tile
	t.beginDay()

	// The three visit classes, computed once per day: non-residence,
	// urban residence, rural residence. Urban homes offload to WiFi per
	// the scenario; rural homes have weaker fixed broadband — a higher
	// cellular share at baseline and a damped pandemic offload shift —
	// and their appetite growth is capped by coverage and plan limits,
	// damping the confinement boost. The rule keys on where the
	// residence is, so relocated users take on their destination's
	// offload behaviour.
	urbanOffload := p.HomeCellularShare * f.homeF
	ruralOffload := p.RuralHomeCellularShare * (1 - (1-f.homeF)*p.RuralOffloadDamping)
	cls := [3]visitClass{
		{offEng: 1, offDem: 1, ulBoost: 1},
		{offEng: urbanOffload, offDem: urbanOffload * f.homeBoost, ulBoost: f.confBoost},
		{offEng: ruralOffload, offDem: ruralOffload * (1 + (f.homeBoost-1)*0.3), ulBoost: f.confBoost},
	}

	tab := &e.tab
	visits := 0
	for i := range traces {
		tr := &traces[i]
		visits += len(tr.Visits)
		usrc := rng.Stream2(e.seed, uint64(tr.User), uint64(day))
		// Per-user-day appetite dispersion.
		quirk := 0.70 + 0.60*usrc.Float64()
		dlPerDay := p.DLPerUserDayMB * f.dataF * quirk
		voicePerDay := p.VoiceMinPerUserDay * f.voiceF * (0.70 + 0.60*usrc.Float64())
		for h := 0; h < timegrid.HoursPerDay; h++ {
			tab.dl[h] = dlPerDay * diurnalData[h]
			tab.voice[h] = voicePerDay * diurnalVoice[h]
		}

		for _, v := range tr.Visits {
			tw := v.Tower()
			secPerHour := float64(v.Seconds()) / timegrid.BinHours
			hourFrac := secPerHour / 3600
			start, end := v.Bin().Hours()
			// offEng drives "active user" engagement (no appetite boost:
			// an offloaded user is attached but inactive on cellular);
			// offDem additionally carries the confinement demand boost.
			c := &cls[0]
			if v.AtResidence() {
				if e.towerRural[tw] {
					c = &cls[2]
				} else {
					c = &cls[1]
				}
			}
			th := t.tower(int32(tw))
			for h := start; h < end; h++ {
				a := &th[h]
				a.presSec += secPerHour
				a.activeSec += secPerHour * engagement[h] * c.offEng
				dl := tab.dl[h] * hourFrac * c.offDem
				a.dlMB += dl
				a.ulMB += dl * p.ULRatio * c.ulBoost
				a.voiceMin += tab.voice[h] * hourFrac
			}
		}
	}
	return visits
}

// reduce turns the accumulated tile into per-cell-hour KPI records:
// interconnect congestion from the national voice total, then the
// per-cell computation, emitting cells in tower order, hours ascending.
func (e *Engine) reduce(day timegrid.SimDay, f *dayFactors, emit func(*CellHour)) {
	p := &e.params
	t := &e.tile

	// Interconnect congestion: national voice demand per hour versus the
	// day's capacity. Only touched towers can contribute; summing them
	// in ascending tower index replays the old full scan's order (the
	// skipped rows are exact zeros), so the totals are bit-identical.
	slices.Sort(t.touched)
	var nationalVoice [timegrid.HoursPerDay]float64
	for _, ti := range t.touched {
		th := &t.acc[ti]
		for h := 0; h < timegrid.HoursPerDay; h++ {
			nationalVoice[h] += th[h].voiceMin
		}
	}
	capacity := e.InterconnectCapacity(day)
	var congestionLoss [timegrid.HoursPerDay]float64
	for h := 0; h < timegrid.HoursPerDay; h++ {
		util := nationalVoice[h] / capacity
		if util > 1 {
			extra := (util - 1) * p.CongestionLossPctPerUnit
			if extra > p.CongestionLossCapPct {
				extra = p.CongestionLossCapPct
			}
			congestionLoss[h] = extra
		}
	}

	// Per-cell-hour KPI computation. Untouched towers still emit — an
	// idle active cell has well-defined load/loss KPIs — reading the
	// shared zero tile.
	const baselineLoadNorm = 0.35
	ch := &e.ch

	for ti := range e.topo.Towers {
		tower := &e.topo.Towers[ti]
		if !tower.ActiveOn(day) {
			continue
		}
		cells := e.topo.Cells4GOfTower(tower.ID)
		if len(cells) == 0 {
			continue
		}
		hours := t.hours(ti)

		// Per-cell-day load split weights: uneven sector loading.
		weights := e.weights[:0]
		var wsum float64
		for _, cid := range cells {
			wsrc := rng.Stream2(e.seed, uint64(cid), uint64(day))
			w := 0.75 + 0.5*wsrc.Float64()
			weights = append(weights, w)
			wsum += w
		}
		e.weights = weights

		for ci, cid := range cells {
			share := weights[ci] / wsum
			csrc := rng.Stream2(e.seed, uint64(cid)^0xCE11, uint64(day))
			thrJitter := 0.92 + 0.16*csrc.Float64()

			for h := 0; h < timegrid.HoursPerDay; h++ {
				a := &hours[h]
				pres := a.presSec / 3600 * share * e.subsPerAgent
				active := a.activeSec / 3600 * share * e.subsPerAgent
				dl := a.dlMB * share * e.subsPerAgent
				ul := a.ulMB * share * e.subsPerAgent
				vmin := a.voiceMin * share * e.subsPerAgent
				vMB := vmin * p.VoiceMBPerMin

				load := p.LoadOverhead + (dl+ul+2*vMB)/p.CellCapacityMBPerHour
				if load > 1 {
					load = 1
				}
				loadNorm := load / baselineLoadNorm

				ch.Cell = cid
				ch.Hour = h
				ch.Values[DLVolume] = dl + vMB
				ch.Values[ULVolume] = ul + vMB
				ch.Values[DLActiveUsers] = active
				ch.Values[RadioLoad] = load
				ch.Values[ConnectedUsers] = pres
				ch.Values[VoiceVolume] = vMB
				ch.Values[VoiceUsers] = vmin / 60
				ch.Values[VoiceULLoss] = p.BaseULLossPct * (0.35 + 0.65*loadNorm)
				ch.Values[VoiceDLLoss] = p.BaseDLLossPct*(0.35+0.65*loadNorm) + congestionLoss[h]
				ch.Values[DLThroughput] = 0
				if active > 0.01 {
					ch.Values[DLThroughput] = p.BaseThroughputMbps * f.throttleF * thrJitter * (1 - p.CongestionK*load*load)
				}
				emit(ch)
			}
		}
	}
}

// median24 returns the median of xs[:n], partially reordering the
// bounded scratch in place: an order-statistic select (Hoare-partition
// quickselect finishing with a short insertion pass) instead of a full
// library sort — ~60 compares instead of the ~300 a 24-element sort
// costs, with zero allocation. The median is an order statistic, so the
// value is bit-identical to sorting with sort.Float64s and picking the
// middle (no NaNs reach the staging buffers).
func median24(xs *[timegrid.HoursPerDay]float64, n int) float64 {
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	k := n / 2
	if n%2 == 1 {
		return select24(xs, n, k)
	}
	lo := select24(xs, n, k-1)
	// select24 leaves xs[k:n] >= xs[k-1], so the k-th order statistic
	// is their minimum.
	hi := xs[k]
	for i := k + 1; i < n; i++ {
		if xs[i] < hi {
			hi = xs[i]
		}
	}
	return (lo + hi) / 2
}

// select24 partially reorders xs[:n] so that xs[k] holds the k-th order
// statistic (0-based), everything left of k is <= it and everything
// right of k is >= it, and returns xs[k].
func select24(xs *[timegrid.HoursPerDay]float64, n, k int) float64 {
	lo, hi := 0, n-1
	for hi-lo > 8 {
		// Median-of-three pivot, moved to the middle slot.
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		p := xs[mid]
		// Hoare partition: [lo..j] <= p, [i..hi] >= p, anything strictly
		// between equals p.
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k] // k landed in the all-equal-to-pivot gap
		}
	}
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
	return xs[k]
}

// medianInPlace returns the median of xs, sorting it in place — the
// caller's staging buffer is reset before its next fill, so no copy is
// needed. The engine's own reduction uses the fixed-size median24; this
// slice form remains the reference implementation the tests compare
// against.
func medianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
