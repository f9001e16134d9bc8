package census

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/rng"
)

// CountyID indexes a county (UTLA) in the Model.
type CountyID int

// DistrictID indexes a postcode district in the Model.
type DistrictID int

// CountyKind classifies a county's dominant character; it drives the
// geodemographic makeup of its districts.
type CountyKind int

// County kinds.
const (
	KindMetroCore        CountyKind = iota // Inner London
	KindMetroSuburb                        // Outer London
	KindMetro                              // Greater Manchester, West Midlands
	KindMetroResidential                   // West Yorkshire (more residential metro)
	KindHomeCounties                       // commuter-belt counties
	KindMixed                              // mixed urban/rural shires
	KindUrbanNorth                         // northern England / South Wales urban
	KindCoastal                            // coastal retirement/seaside counties
	KindRural                              // predominantly rural counties
)

// County is a UTLA/county of the synthetic UK.
type County struct {
	ID         CountyID
	Name       string
	Kind       CountyKind
	Area       geo.Disc // geometry on the national km grid
	Population int      // census residents at full scale
	Districts  []DistrictID
}

// District is a postcode district (the paper's finest aggregation level).
type District struct {
	ID         DistrictID
	Code       string // e.g. "EC", "WC", "MAN3"
	County     CountyID
	Area       geo.Disc
	Population int // census residents at full scale
	Cluster    Cluster
	// DayVisitorWeight is the district's relative attraction for work,
	// commerce and recreation trips; EC/WC-style central districts have
	// weights far exceeding their resident population, which is the
	// mechanism behind their outsized traffic collapse (§5.1).
	DayVisitorWeight float64
	// SeasonalShare is the fraction of the resident population that is
	// transient (long-term tourists, students in term-time housing) and a
	// candidate for leaving during lockdown (§3.4).
	SeasonalShare float64
}

// Model is the synthetic UK: counties, districts and lookup tables.
type Model struct {
	Counties  []County
	Districts []District

	byCountyName map[string]CountyID
	totalPop     int
}

// countySpec is the static seed table the model is built from.
type countySpec struct {
	name   string
	kind   CountyKind
	x, y   float64 // centre, km grid
	radius float64 // km
	pop    int
}

// ukCounties approximates the real geography on a planar kilometre grid
// (x east, y north). Populations are rounded census figures; the five
// focus regions of §3.2 are present along with the top receiving counties
// of the Fig. 7 mobility matrix.
var ukCounties = []countySpec{
	{"Inner London", KindMetroCore, 530, 180, 12, 2_900_000},
	{"Outer London", KindMetroSuburb, 530, 180, 28, 4_800_000},
	{"Greater Manchester", KindMetro, 384, 398, 22, 2_800_000},
	{"West Midlands", KindMetro, 407, 286, 22, 2_900_000},
	{"West Yorkshire", KindMetroResidential, 430, 433, 20, 2_300_000},
	{"Hampshire", KindMixed, 450, 130, 30, 1_850_000},
	{"Kent", KindMixed, 590, 160, 28, 1_850_000},
	{"East Sussex", KindCoastal, 555, 110, 20, 850_000},
	{"Essex", KindMixed, 585, 215, 26, 1_800_000},
	{"Surrey", KindHomeCounties, 510, 150, 18, 1_200_000},
	{"Hertfordshire", KindHomeCounties, 520, 215, 16, 1_200_000},
	{"Berkshire", KindHomeCounties, 470, 170, 16, 900_000},
	{"Oxfordshire", KindMixed, 455, 205, 18, 690_000},
	{"Cambridgeshire", KindMixed, 540, 260, 20, 650_000},
	{"Tyne and Wear", KindUrbanNorth, 425, 565, 14, 1_100_000},
	{"Lancashire", KindUrbanNorth, 355, 440, 22, 1_500_000},
	{"South Wales", KindUrbanNorth, 290, 180, 24, 1_300_000},
	{"Devon", KindRural, 290, 90, 28, 800_000},
	{"Cumbria", KindRural, 330, 520, 26, 500_000},
	{"North Yorkshire", KindRural, 440, 470, 28, 600_000},
	{"Norfolk", KindRural, 620, 300, 26, 900_000},
	{"Cornwall", KindRural, 210, 55, 22, 570_000},
}

// innerLondonDistrict seeds the eight fixed Inner London postal districts
// analysed in §5. EC and WC are the central business/commercial districts
// with tiny resident populations (the paper quotes ≈30k residents in EC
// versus ≈400k in SW) and very large daytime visitor attraction, plus a
// high seasonal share (tourists, students).
type innerLondonDistrict struct {
	code          string
	pop           int
	cluster       Cluster
	visitorWeight float64
	seasonalShare float64
	angleDeg      float64 // placement around the Inner London centre
	radiusFrac    float64
}

var innerLondonDistricts = []innerLondonDistrict{
	{"EC", 30_000, Cosmopolitans, 9.0, 0.40, 15, 0.15},
	{"WC", 45_000, Cosmopolitans, 8.0, 0.40, 165, 0.15},
	{"N", 350_000, EthnicityCentral, 1.1, 0.10, 90, 0.6},
	{"E", 400_000, EthnicityCentral, 1.2, 0.12, 30, 0.65},
	{"SE", 420_000, MulticulturalMetropolitans, 0.9, 0.08, 300, 0.65},
	{"SW", 400_000, EthnicityCentral, 1.0, 0.12, 240, 0.65},
	{"W", 330_000, Cosmopolitans, 2.2, 0.25, 195, 0.6},
	{"NW", 340_000, MulticulturalMetropolitans, 0.9, 0.08, 135, 0.65},
}

// clusterMix returns the cluster sequence used for a county kind's
// districts: districts are assigned clusters round-robin from this list,
// so earlier entries dominate. The mixes encode §4.4's observations
// (e.g. ~45% of Inner London postcodes are Cosmopolitans and ~50%
// Ethnicity Central; metro cores have Cosmopolitan centres; rural
// counties are Rural Residents with a market town).
func clusterMix(kind CountyKind) []Cluster {
	switch kind {
	case KindMetroSuburb:
		return []Cluster{MulticulturalMetropolitans, Suburbanites, MulticulturalMetropolitans, Urbanites, Suburbanites}
	case KindMetro:
		return []Cluster{Cosmopolitans, MulticulturalMetropolitans, ConstrainedCityDwellers, HardPressedLiving, Suburbanites, MulticulturalMetropolitans}
	case KindMetroResidential:
		return []Cluster{Cosmopolitans, Suburbanites, HardPressedLiving, MulticulturalMetropolitans, Suburbanites}
	case KindHomeCounties:
		return []Cluster{Suburbanites, Urbanites, Suburbanites, Urbanites}
	case KindMixed:
		return []Cluster{Urbanites, Suburbanites, RuralResidents, Urbanites, RuralResidents}
	case KindUrbanNorth:
		return []Cluster{HardPressedLiving, ConstrainedCityDwellers, HardPressedLiving, Suburbanites, MulticulturalMetropolitans}
	case KindCoastal:
		return []Cluster{Urbanites, ConstrainedCityDwellers, Suburbanites, RuralResidents}
	case KindRural:
		return []Cluster{RuralResidents, RuralResidents, Urbanites, RuralResidents}
	default:
		return []Cluster{Urbanites}
	}
}

// visitorWeightFor returns the day-visitor attraction of the i-th district
// of a county kind; the first district of metro counties is the centre.
func visitorWeightFor(kind CountyKind, i int) float64 {
	switch kind {
	case KindMetro:
		if i == 0 {
			return 5.0 // CBD: offices, commerce, nightlife, few residents
		}
		return 0.8
	case KindMetroResidential:
		if i == 0 {
			return 3.0 // smaller commercial core
		}
		return 0.8
	case KindMetroSuburb:
		return 0.7
	case KindHomeCounties:
		return 0.6
	case KindMixed, KindCoastal:
		return 0.6
	case KindUrbanNorth:
		if i == 0 {
			return 2.0
		}
		return 0.7
	case KindRural:
		if i == 2 { // the market town
			return 1.0
		}
		return 0.4
	default:
		return 0.6
	}
}

// seasonalShareFor returns the transient-resident share per county kind.
func seasonalShareFor(kind CountyKind, i int) float64 {
	switch kind {
	case KindMetro:
		if i == 0 {
			return 0.25 // students + business travellers in metro centres
		}
		return 0.04
	case KindMetroResidential:
		if i == 0 {
			return 0.15
		}
		return 0.03
	case KindCoastal, KindRural:
		return 0.02
	default:
		return 0.03
	}
}

// districtsFor returns how many districts a county of the given
// population gets (Inner London is fixed at 8 elsewhere).
func districtsFor(pop int) int {
	n := pop / 400_000
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

// BuildUK constructs the deterministic synthetic United Kingdom. The
// layout is identical for every call with the same seed; seed only
// perturbs district placement jitter, not the administrative structure.
func BuildUK(seed uint64) *Model {
	src := rng.New(rng.Hash64(seed ^ 0xC0FFEE))
	m := &Model{
		byCountyName: make(map[string]CountyID),
	}

	for _, spec := range ukCounties {
		cid := CountyID(len(m.Counties))
		county := County{
			ID:         cid,
			Name:       spec.name,
			Kind:       spec.kind,
			Area:       geo.Disc{Center: geo.Pt(spec.x, spec.y), Radius: spec.radius},
			Population: spec.pop,
		}

		if spec.kind == KindMetroCore {
			// Inner London: the eight fixed postal districts of §5.
			for _, d := range innerLondonDistricts {
				did := m.addDistrict(District{
					Code:             d.code,
					County:           cid,
					Area:             geo.Disc{Center: county.Area.PointOnRing(d.angleDeg*math.Pi/180, d.radiusFrac), Radius: 2.5},
					Population:       d.pop,
					Cluster:          d.cluster,
					DayVisitorWeight: d.visitorWeight,
					SeasonalShare:    d.seasonalShare,
				})
				county.Districts = append(county.Districts, did)
			}
		} else {
			n := districtsFor(spec.pop)
			mix := clusterMix(spec.kind)
			// Population split: the first (central) district of metro
			// counties is larger; remaining population is spread evenly
			// with mild deterministic jitter.
			shares := make([]float64, n)
			var total float64
			for i := range shares {
				s := 1.0
				switch {
				case i == 0 && spec.kind == KindMetro:
					// CBDs have small resident populations relative to
					// their daytime attraction (EC/WC-style).
					s = 0.5
				case i == 0 && spec.kind == KindMetroResidential:
					s = 0.6
				case i == 0 && spec.kind == KindUrbanNorth:
					s = 1.4
				}
				s *= src.Range(0.85, 1.15)
				shares[i] = s
				total += s
			}
			for i := 0; i < n; i++ {
				angle := 2 * math.Pi * float64(i) / float64(n)
				frac := 0.55
				if i == 0 {
					frac = 0.0 // centre
				} else {
					frac = src.Range(0.45, 0.8)
				}
				var placement float64
				if spec.kind == KindMetroSuburb {
					// Outer London is an annulus around Inner London.
					frac = src.Range(0.35, 0.65)
					placement = frac
				} else {
					placement = frac
				}
				code := fmt.Sprintf("%s%d", countyCode(spec.name), i+1)
				did := m.addDistrict(District{
					Code:             code,
					County:           cid,
					Area:             geo.Disc{Center: county.Area.PointOnRing(angle, placement), Radius: spec.radius / float64(n) * 1.2},
					Population:       int(float64(spec.pop) * shares[i] / total),
					Cluster:          mix[i%len(mix)],
					DayVisitorWeight: visitorWeightFor(spec.kind, i),
					SeasonalShare:    seasonalShareFor(spec.kind, i),
				})
				county.Districts = append(county.Districts, did)
			}
		}

		// Keep the county total exactly consistent with its district
		// split (integer rounding and the fixed Inner-London districts
		// would otherwise drift).
		county.Population = 0
		for _, did := range county.Districts {
			county.Population += m.Districts[did].Population
		}
		m.Counties = append(m.Counties, county)
		m.byCountyName[county.Name] = cid
	}

	for _, c := range m.Counties {
		m.totalPop += c.Population
	}
	return m
}

// addDistrict appends d, assigning its ID.
func (m *Model) addDistrict(d District) DistrictID {
	d.ID = DistrictID(len(m.Districts))
	m.Districts = append(m.Districts, d)
	return d.ID
}

// countyCode derives a short postcode-style prefix from a county name
// ("Greater Manchester" → "GM", "Kent" → "KEN").
func countyCode(name string) string {
	initials := ""
	wordStart := true
	for _, r := range name {
		if r == ' ' {
			wordStart = true
			continue
		}
		if wordStart {
			initials += string(r)
			wordStart = false
		}
	}
	if len(initials) >= 2 {
		return initials
	}
	if len(name) >= 3 {
		up := []rune(name)
		return string(up[0]) + string(up[1]-32+32) + string(up[2]) // keep simple 3-letter code
	}
	return name
}

// County returns the county with the given ID.
func (m *Model) County(id CountyID) *County { return &m.Counties[id] }

// District returns the district with the given ID.
func (m *Model) District(id DistrictID) *District { return &m.Districts[id] }

// CountyByName looks up a county by its exact name.
func (m *Model) CountyByName(name string) (*County, bool) {
	id, ok := m.byCountyName[name]
	if !ok {
		return nil, false
	}
	return &m.Counties[id], true
}

// TotalPopulation returns the full-scale census population.
func (m *Model) TotalPopulation() int { return m.totalPop }

// InnerLondon returns the Inner London county.
func (m *Model) InnerLondon() *County {
	c, ok := m.CountyByName("Inner London")
	if !ok {
		panic("census: model missing Inner London")
	}
	return c
}

// FocusRegionNames lists the five high-density study regions of §3.2 and
// §4.3, in the paper's order.
func FocusRegionNames() []string {
	return []string{"Inner London", "Outer London", "Greater Manchester", "West Midlands", "West Yorkshire"}
}

// FocusRegions resolves FocusRegionNames against the model.
func (m *Model) FocusRegions() []*County {
	names := FocusRegionNames()
	out := make([]*County, 0, len(names))
	for _, n := range names {
		c, ok := m.CountyByName(n)
		if !ok {
			panic("census: model missing focus region " + n)
		}
		out = append(out, c)
	}
	return out
}

// LondonClusters returns the clusters present in Inner London (the paper
// finds exactly three map to London: Cosmopolitans, Ethnicity Central and
// Multicultural Metropolitans).
func (m *Model) LondonClusters() []Cluster {
	seen := make(map[Cluster]bool)
	var out []Cluster
	for _, did := range m.InnerLondon().Districts {
		c := m.Districts[did].Cluster
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
