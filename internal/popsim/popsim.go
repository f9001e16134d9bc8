// Package popsim synthesizes the subscriber population: agents with a
// home, a personal set of anchor places, a socio-economic profile, a
// device, and (for a minority) a decision to temporarily relocate during
// lockdown.
//
// The design follows the mobility literature the paper builds on: most
// people have 3–6 important places and rarely more than 8 (Gonzalez et
// al. 2008; Isaacman et al. 2011, both cited in §2.3), daily movement is
// dominated by home/work commuting plus short-range discretionary trips,
// and trip radii differ systematically across geodemographic clusters —
// rural residents roam widest, inner-city dwellers move within small but
// varied neighbourhoods (high entropy, low gyration; §3.2–3.3).
package popsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/census"
	"repro/internal/devices"
	"repro/internal/geo"
	"repro/internal/pandemic"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Profile is an agent's activity profile; it determines how the agent
// responds to the interventions (office workers switch to WFH, key
// workers keep commuting, students lose school trips).
type Profile int

// Profiles.
const (
	OfficeWorker Profile = iota // can work from home
	KeyWorker                   // health, food retail, logistics: keeps commuting
	Student                     // school/university; closed from week 12
	Retired
	HomeBased   // home-makers, home workers pre-pandemic
	NumProfiles = int(HomeBased) + 1
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case OfficeWorker:
		return "office-worker"
	case KeyWorker:
		return "key-worker"
	case Student:
		return "student"
	case Retired:
		return "retired"
	case HomeBased:
		return "home-based"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// SIMKind distinguishes the subscriber categories §2.3 filters over.
type SIMKind int

// SIM kinds.
const (
	NativeSmartphone SIMKind = iota // the analysis population
	NativeM2M                       // machine-to-machine SIMs (dropped)
	InboundRoamer                   // foreign subscribers (dropped)
)

// AnchorKind labels an agent's important places.
type AnchorKind int

// Anchor kinds.
const (
	AnchorHome    AnchorKind = iota
	AnchorWork               // workplace or school
	AnchorErrand             // shopping, gym, worship, family …
	AnchorLeisure            // parks, venues, nightlife
)

// Anchor is one important place of an agent, pinned to a radio tower.
type Anchor struct {
	Kind     AnchorKind
	Tower    radio.TowerID
	District census.DistrictID
	// Weight is the relative propensity to visit this anchor on a
	// discretionary trip.
	Weight float64
}

// UserID identifies an agent.
type UserID uint32

// User is one synthetic subscriber.
type User struct {
	ID      UserID
	Kind    SIMKind
	Profile Profile
	Device  devices.Entry
	PLMN    devices.PLMN

	HomeDistrict census.DistrictID
	HomeCounty   census.CountyID
	HomeTower    radio.TowerID
	Cluster      census.Cluster

	// Anchors always starts with home ([0]) and, for commuters, work
	// ([1]); discretionary anchors follow. len is 3–8.
	Anchors []Anchor

	// Relocates marks relocation *candidates*: agents (students,
	// long-term tourists, second-home owners) who would leave their
	// primary residence for a lockdown. Whether the move actually
	// happens is the scenario's call — the mobility simulator only
	// relocates candidates while pandemic.Scenario.RelocationActive
	// holds, so the synthesized population stays scenario-independent.
	Relocates     bool
	RelocTower    radio.TowerID
	RelocDistrict census.DistrictID
	RelocCounty   census.CountyID

	// NightOff is the probability that the agent's phone is off (or out
	// of coverage) during the night bins of a given day. A minority of
	// users switch phones off overnight, which is why the paper's
	// home-detection rule (≥14 observed nights) finds homes for only
	// ~16M of ~22M users.
	NightOff float64
}

// Worker reports whether the agent has a work/school anchor.
func (u *User) Worker() bool {
	return u.Profile == OfficeWorker || u.Profile == KeyWorker || u.Profile == Student
}

// The rungs of the scale ladder (PERFORMANCE.md, "Scale ladder"):
// named so tests, benchmarks and the cmd -users flags agree on what
// each rung means instead of repeating magic numbers.
//
//	ScaleSmall   the default experiment scale — large enough for stable
//	             medians, small enough for fast tests
//	ScaleMedium  the parity/smoke rung: big enough that per-user memory
//	             and allocation behaviour is no longer dominated by
//	             fixed overheads
//	ScaleLarge   the million-subscriber rung of the paper's real MNO
//	             footprint; must fit the documented bytes-per-user
//	             budget
const (
	ScaleSmall  = 8_000
	ScaleMedium = 100_000
	ScaleLarge  = 1_000_000
)

// Config controls population synthesis.
type Config struct {
	Seed           uint64
	TargetUsers    int     // native smartphone agents to synthesize
	M2MFraction    float64 // extra M2M SIMs, as a fraction of TargetUsers
	RoamerFraction float64 // extra inbound-roamer SIMs, idem
}

// DefaultConfig returns the scale used by the experiments: ScaleSmall
// users, with the paper's M2M and roamer fractions.
func DefaultConfig() Config {
	return Config{Seed: 1, TargetUsers: ScaleSmall, M2MFraction: 0.08, RoamerFraction: 0.03}
}

// Population is the synthesized subscriber base.
type Population struct {
	Users []User

	model *census.Model
	topo  *radio.Topology

	native       []UserID // indices of native smartphones
	byHomeCounty map[census.CountyID][]UserID
	scale        float64 // agents per census person

	// cols is the struct-of-arrays mirror of the hot per-agent fields
	// (see Columns); sealed at the end of Synthesize.
	cols Columns
}

// profileWeights returns the profile distribution for a cluster,
// following the Table 1 pen portraits (students in Cosmopolitans,
// retirees in Suburbanites and Rural Residents, unemployment in
// Constrained City Dwellers and Hard-pressed Living).
func profileWeights(c census.Cluster) [NumProfiles]float64 {
	switch c {
	case census.Cosmopolitans:
		return [NumProfiles]float64{0.38, 0.10, 0.34, 0.04, 0.14}
	case census.EthnicityCentral:
		return [NumProfiles]float64{0.36, 0.18, 0.18, 0.08, 0.20}
	case census.MulticulturalMetropolitans:
		return [NumProfiles]float64{0.34, 0.20, 0.16, 0.10, 0.20}
	case census.Urbanites:
		return [NumProfiles]float64{0.44, 0.12, 0.10, 0.16, 0.18}
	case census.Suburbanites:
		return [NumProfiles]float64{0.36, 0.10, 0.12, 0.26, 0.16}
	case census.ConstrainedCityDwellers:
		return [NumProfiles]float64{0.24, 0.16, 0.10, 0.22, 0.28}
	case census.HardPressedLiving:
		return [NumProfiles]float64{0.26, 0.20, 0.12, 0.18, 0.24}
	case census.RuralResidents:
		return [NumProfiles]float64{0.30, 0.12, 0.08, 0.30, 0.20}
	default:
		return [NumProfiles]float64{0.35, 0.15, 0.15, 0.15, 0.20}
	}
}

// anchorRadiusKm returns the typical distance scale of discretionary
// anchors for a cluster: rural residents cover wide areas, inner-city
// clusters live in compact neighbourhoods.
func anchorRadiusKm(c census.Cluster) float64 {
	switch c {
	case census.RuralResidents:
		return 24
	case census.EthnicityCentral:
		// The most compact neighbourhoods: daily life within walking
		// distance, so the commute dominates the baseline gyration and
		// its removal under lockdown produces the largest relative drop
		// of all clusters (§3.3).
		return 3.2
	case census.Cosmopolitans:
		return 5.0
	case census.MulticulturalMetropolitans, census.ConstrainedCityDwellers:
		return 7
	case census.Urbanites:
		return 13.5
	case census.Suburbanites:
		return 12.5
	case census.HardPressedLiving:
		return 10
	default:
		return 10
	}
}

// anchorCount draws the number of discretionary anchors: total important
// places land in the 3–8 range of the literature, with inner-city
// clusters at the high end (more places, higher entropy).
func anchorCount(c census.Cluster, src *rng.Source) int {
	lo, hi := 1, 4
	switch c {
	case census.Cosmopolitans, census.EthnicityCentral:
		lo, hi = 3, 6
	case census.MulticulturalMetropolitans, census.ConstrainedCityDwellers:
		lo, hi = 2, 5
	case census.RuralResidents, census.Suburbanites:
		lo, hi = 1, 3
	}
	return src.IntRange(lo, hi)
}

// Synthesize builds the population over the census model and radio
// topology. The result is deterministic in (model, topo, cfg) and
// scenario-independent: relocation *candidates* are drawn from the
// scenario-free seasonal propensity, so one population can be shared
// across every scenario of a sweep (experiments.World).
//
// Districts are synthesized in parallel on GOMAXPROCS workers; every
// native agent draws only from its own split stream, so the result does
// not depend on the worker count.
func Synthesize(model *census.Model, topo *radio.Topology, cfg Config) *Population {
	return synthesize(model, topo, cfg, runtime.GOMAXPROCS(0))
}

// synthesize is Synthesize on the given number of workers.
func synthesize(model *census.Model, topo *radio.Topology, cfg Config, workers int) *Population {
	if cfg.TargetUsers <= 0 {
		cfg = DefaultConfig()
	}
	// seed is the master stream's state: every draw below comes from a
	// pure split of it, so no stream is shared between agents.
	seed := rng.Hash64(cfg.Seed ^ 0x9090)
	p := &Population{
		model: model,
		topo:  topo,
		scale: float64(cfg.TargetUsers) / float64(model.TotalPopulation()),
	}
	catalog := devices.NewCatalog()
	tables := newDrawTables(model)

	// Native smartphone agents, distributed per district population.
	// The MNO's market share varies across districts (stronger in some
	// regions than others), which is why the paper's census validation
	// reaches r² = 0.955 rather than a perfect fit (Fig. 2); we model
	// the same dispersion with a deterministic per-district factor.
	// The counts are fixed first, so district di owns the ID range
	// [first[di], first[di+1]) before any agent is drawn.
	first := make([]int, len(model.Districts)+1)
	for di := range model.Districts {
		jitter := rng.Stream2(seed, 0x5A4E, uint64(di))
		shareJitter := jitter.Range(0.90, 1.12)
		n := int(math.Round(float64(model.Districts[di].Population) * p.scale * shareJitter))
		first[di+1] = first[di] + max(n, 1)
	}
	natives := first[len(model.Districts)]
	m2m := int(float64(cfg.TargetUsers) * cfg.M2MFraction)
	roamers := int(float64(cfg.TargetUsers) * cfg.RoamerFraction)
	p.Users = make([]User, natives+m2m+roamers)

	// Workers claim districts and fill their ranges of Users in place.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(max(workers, 1), len(model.Districts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := synthWorker{p: p, tables: tables, catalog: catalog}
			for {
				di := int(next.Add(1) - 1)
				if di >= len(model.Districts) {
					return
				}
				d := &model.Districts[di]
				for i := first[di]; i < first[di+1]; i++ {
					src := rng.Stream2(seed, uint64(di), uint64(i-first[di]))
					w.nativeUser(&p.Users[i], UserID(i), d, &src)
				}
			}
		}()
	}
	wg.Wait()
	p.indexNatives(natives)

	// M2M SIMs and inbound roamers: present in the signalling feed, and
	// filtered out by the §2.3 pipeline. Each has a home anchor only.
	homes := make([]Anchor, m2m+roamers)
	for i := 0; i < m2m+roamers; i++ {
		var src rng.Source
		var d *census.District
		u := &p.Users[natives+i]
		if i < m2m {
			src = rng.Stream2(seed, 0xAA, uint64(i))
			d = &model.Districts[src.Intn(len(model.Districts))]
			*u = User{Kind: NativeM2M, Device: catalog.AssignM2MDevice(&src), PLMN: devices.HomePLMN}
		} else {
			src = rng.Stream2(seed, 0xBB, uint64(i-m2m))
			// Roamers concentrate in central, touristic districts.
			d = &model.Districts[src.Pick(tables.visitor)]
			*u = User{Kind: InboundRoamer, Device: catalog.AssignDevice(&src)}
			u.PLMN = devices.RoamerPLMN(&src)
		}
		u.ID = UserID(natives + i)
		u.Profile = HomeBased
		u.HomeDistrict, u.HomeCounty, u.Cluster = d.ID, d.County, d.Cluster
		u.HomeTower = topo.PickTower(d.ID, 0, &src)
		homes[i] = Anchor{Kind: AnchorHome, Tower: u.HomeTower, District: d.ID, Weight: 1}
		u.Anchors = homes[i : i+1 : i+1]
	}
	p.sealColumns()
	return p
}

// indexNatives lists the native agents, IDs [0, n), in ID order, and
// groups them by home county into exactly sized slices of one array.
func (p *Population) indexNatives(n int) {
	p.native = make([]UserID, n)
	counts := make([]int, len(p.model.Counties))
	for i := range p.native {
		p.native[i] = UserID(i)
		counts[p.Users[i].HomeCounty]++
	}
	byCounty := make([][]UserID, len(counts))
	ids := make([]UserID, n)
	off := 0
	for c, k := range counts {
		byCounty[c] = ids[off : off : off+k]
		off += k
	}
	for i := range p.native {
		c := p.Users[i].HomeCounty
		byCounty[c] = append(byCounty[c], UserID(i))
	}
	p.byHomeCounty = make(map[census.CountyID][]UserID, len(counts))
	for c, list := range byCounty {
		if len(list) > 0 {
			p.byHomeCounty[census.CountyID(c)] = list
		}
	}
}

// drawTables are the weight tables synthesis draws from, built once per
// Synthesize call and only read by the workers.
type drawTables struct {
	innerLondon *census.County
	inner       []float64 // day-visitor weight of each Inner London district
	visitor     []float64 // day-visitor weight of every district
	rural       []*census.County
	residential [][]float64 // per county: resident population of each district
	districts   *geo.Grid   // district centres, indexed by DistrictID

	destNames   []string // London relocation destinations and their weights
	destWeights []float64
}

func newDrawTables(model *census.Model) *drawTables {
	t := &drawTables{
		innerLondon: model.InnerLondon(),
		visitor:     make([]float64, len(model.Districts)),
		residential: make([][]float64, len(model.Counties)),
	}
	t.destNames, t.destWeights = pandemic.RelocationDestinations()
	for _, did := range t.innerLondon.Districts {
		t.inner = append(t.inner, model.District(did).DayVisitorWeight)
	}
	centres := make([]geo.Point, len(model.Districts))
	for i := range model.Districts {
		t.visitor[i] = model.Districts[i].DayVisitorWeight
		centres[i] = model.Districts[i].Area.Center
	}
	t.districts = geo.NewGrid(centres, districtCellKm)
	for i := range model.Counties {
		c := &model.Counties[i]
		if c.Kind == census.KindRural || c.Kind == census.KindMixed {
			t.rural = append(t.rural, c)
		}
		w := make([]float64, len(c.Districts))
		for j, did := range c.Districts {
			w[j] = float64(model.District(did).Population)
		}
		t.residential[i] = w
	}
	return t
}

// districtCellKm is the cell edge of the grid over district centres:
// 79 centres over ~700×1000 km. Edges from 30 to 60 km time alike on
// BenchmarkPopulationSynthesis; 20 and 80 km are slower.
const districtCellKm = 40

// maxAnchors bounds an agent's anchors: home, work and at most six
// discretionary places (anchorCount).
const maxAnchors = 8

// anchorChunk is the size of one anchor arena allocation, in anchors.
const anchorChunk = 1024

// synthWorker synthesizes native agents on one goroutine, with its own
// anchor arena and work-district candidate buffers.
type synthWorker struct {
	p       *Population
	tables  *drawTables
	catalog *devices.Catalog

	arena   []Anchor // anchors handed out so far from the current chunk
	cands   []census.DistrictID
	weights []float64
}

// nativeUser synthesizes the native smartphone agent id, homed in d,
// into u.
func (w *synthWorker) nativeUser(u *User, id UserID, d *census.District, src *rng.Source) {
	model, topo := w.p.model, w.p.topo
	*u = User{
		ID:           id,
		Kind:         NativeSmartphone,
		Device:       w.catalog.AssignSmartphone(src),
		PLMN:         devices.HomePLMN,
		HomeDistrict: d.ID,
		HomeCounty:   d.County,
		HomeTower:    topo.PickTower(d.ID, 0, src),
		Cluster:      d.Cluster,
	}
	pw := profileWeights(d.Cluster)
	u.Profile = Profile(src.Pick(pw[:]))
	if src.Bool(0.20) {
		u.NightOff = src.Range(0.55, 0.90)
	}

	if cap(w.arena)-len(w.arena) < maxAnchors {
		w.arena = make([]Anchor, 0, anchorChunk)
	}
	anchors := w.arena[len(w.arena):len(w.arena)]
	anchors = append(anchors, Anchor{Kind: AnchorHome, Tower: u.HomeTower, District: d.ID, Weight: 1})

	// London is compact: whatever the cluster, daily life in the
	// metropolis happens over shorter distances than the same cluster
	// elsewhere (the paper's London reference gyration sits ~20% below
	// the national average, §3.2).
	kind := model.County(d.County).Kind
	isLondon := kind == census.KindMetroCore || kind == census.KindMetroSuburb

	if u.Worker() {
		wd := w.pickWorkDistrict(u, src)
		anchors = append(anchors, Anchor{
			Kind:     AnchorWork,
			Tower:    topo.PickTower(wd, 0, src),
			District: wd,
			Weight:   1,
		})
	}

	// Discretionary anchors within the cluster's radius of home.
	homeLoc := topo.Tower(u.HomeTower).Loc
	radius := anchorRadiusKm(d.Cluster)
	if isLondon && radius > 5.0 {
		radius = 5.0
	}
	n := anchorCount(d.Cluster, src)
	for i := 0; i < n; i++ {
		dist := src.Exp(radius / 2)
		if dist > radius*2.5 {
			dist = radius * 2.5
		}
		angle := src.Range(0, 2*math.Pi)
		target := homeLoc.Add(geo.Pt(dist*math.Cos(angle), dist*math.Sin(angle)))
		ad := w.nearestDistrict(target, d.County)
		kind := AnchorErrand
		if src.Bool(0.4) {
			kind = AnchorLeisure
		}
		anchors = append(anchors, Anchor{
			Kind:     kind,
			Tower:    topo.PickTower(ad, 0, src),
			District: ad,
			Weight:   src.Range(0.3, 1.0),
		})
	}
	u.Anchors = anchors[:len(anchors):len(anchors)]
	w.arena = w.arena[:len(w.arena)+len(anchors)]

	// Relocation candidacy (§3.4): drawn from the scenario-free
	// seasonal propensity so the population is reusable across
	// scenarios; the scenario's relocation toggle decides at simulation
	// time whether candidates actually move.
	if src.Bool(pandemic.SeasonalRelocationPropensity(d)) {
		u.Relocates = true
		var destCounty *census.County
		if isLondon {
			name := w.tables.destNames[src.Pick(w.tables.destWeights)]
			c, ok := model.CountyByName(name)
			if !ok {
				c = model.County(d.County)
			}
			destCounty = c
		} else {
			// Non-London seasonal residents scatter to rural/mixed counties.
			destCounty = w.pickRuralCounty(src)
		}
		dd := destCounty.Districts[src.Pick(w.tables.residential[destCounty.ID])]
		u.RelocCounty = destCounty.ID
		u.RelocDistrict = dd
		u.RelocTower = topo.PickTower(dd, 0, src)
	}
}

// pickWorkDistrict draws a workplace by a gravity rule: districts attract
// commuters proportionally to their day-visitor weight and inversely to
// (squared, floored) distance. Students attend school near home.
func (w *synthWorker) pickWorkDistrict(u *User, src *rng.Source) census.DistrictID {
	p := w.p
	if u.Profile == Student {
		// Schools are local; universities draw across the county.
		if src.Bool(0.7) {
			return u.HomeDistrict
		}
		c := p.model.County(u.HomeCounty)
		return c.Districts[src.Intn(len(c.Districts))]
	}
	homeLoc := p.topo.Tower(u.HomeTower).Loc
	homeKind := p.model.County(u.HomeCounty).Kind
	// Commuter-belt flows into central London: Outer London (and, less
	// often, the home counties) send large worker flows into the Inner
	// London core — the mechanism behind the paper's Inner/Outer London
	// divergence during lockdown (§4.3: Inner London UL −22% in week 14
	// versus Outer London +17% as commuters stay home).
	coreProb := 0.0
	switch homeKind {
	case census.KindMetroSuburb:
		coreProb = 0.25
	case census.KindHomeCounties:
		coreProb = 0.15
	}
	if coreProb > 0 && src.Bool(coreProb) {
		return w.tables.innerLondon.Districts[src.Pick(w.tables.inner)]
	}
	// Candidate districts: all of the home county plus all districts of
	// counties whose centres are within commuting range.
	const commuteKm = 55.0
	cands, weights := w.cands[:0], w.weights[:0]
	for ci := range p.model.Counties {
		c := &p.model.Counties[ci]
		if c.ID != u.HomeCounty && c.Area.Center.Dist(homeLoc) > commuteKm+c.Area.Radius {
			continue
		}
		for _, did := range c.Districts {
			d := p.model.District(did)
			dist := d.Area.Center.Dist(homeLoc)
			if d.County != u.HomeCounty && dist > commuteKm {
				continue
			}
			floor := 3.0
			if dist < floor {
				dist = floor
			}
			cands = append(cands, did)
			weights = append(weights, d.DayVisitorWeight/(dist*dist))
		}
	}
	w.cands, w.weights = cands, weights
	if len(cands) == 0 {
		return u.HomeDistrict
	}
	return cands[src.Pick(weights)]
}

// nearestDistrict returns the district whose centre is closest to the
// point, with distances to the preferred county's districts scaled by
// 0.8 (a mild preference for staying within the home county); ties go
// to the lowest district ID. The county's districts bound the answer,
// so only the districts within that bound are read from the grid; the
// bound is padded because Each compares squared distances.
func (w *synthWorker) nearestDistrict(pt geo.Point, prefer census.CountyID) census.DistrictID {
	model := w.p.model
	best, bestDist := census.DistrictID(0), math.Inf(1)
	closer := func(d *census.District, dd float64) {
		if dd < bestDist || dd == bestDist && d.ID < best {
			best, bestDist = d.ID, dd
		}
	}
	for _, did := range model.County(prefer).Districts {
		d := model.District(did)
		closer(d, d.Area.Center.Dist(pt)*0.8)
	}
	w.tables.districts.Each(pt, bestDist*(1+1e-9), func(i int32) {
		if d := &model.Districts[i]; d.County != prefer {
			closer(d, d.Area.Center.Dist(pt))
		}
	})
	return best
}

// pickRuralCounty draws a rural or mixed county.
func (w *synthWorker) pickRuralCounty(src *rng.Source) *census.County {
	if len(w.tables.rural) == 0 {
		return &w.p.model.Counties[0]
	}
	return w.tables.rural[src.Intn(len(w.tables.rural))]
}

// Model returns the underlying census model.
func (p *Population) Model() *census.Model { return p.model }

// Topology returns the underlying radio topology.
func (p *Population) Topology() *radio.Topology { return p.topo }

// Scale returns agents per census person.
func (p *Population) Scale() float64 { return p.scale }

// Native returns the IDs of native smartphone agents (the §2.3 analysis
// population).
func (p *Population) Native() []UserID { return p.native }

// User returns the agent with the given ID.
func (p *Population) User(id UserID) *User { return &p.Users[id] }

// NativeInCounty returns native smartphone agents homed in the county.
func (p *Population) NativeInCounty(c census.CountyID) []UserID {
	ids := p.byHomeCounty[c]
	out := make([]UserID, 0, len(ids))
	for _, id := range ids {
		if p.Users[id].Kind == NativeSmartphone {
			out = append(out, id)
		}
	}
	return out
}

// CountByKind tallies the population per SIM kind.
func (p *Population) CountByKind() map[SIMKind]int {
	out := make(map[SIMKind]int, 3)
	for i := range p.Users {
		out[p.Users[i].Kind]++
	}
	return out
}
