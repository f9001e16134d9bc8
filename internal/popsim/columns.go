package popsim

import (
	"repro/internal/census"
	"repro/internal/radio"
)

// Columns is the struct-of-arrays mirror of the per-agent fields the
// per-day hot path reads for *every* agent before the day's shape is
// decided: the night-off propensity, the relocation candidacy and its
// destination, and the home anchors. The mobility simulator's per-agent
// prologue runs once per agent per day — at the million-subscriber rung
// that is the single most executed code in the repository — and with
// the columnar mirror it walks small dense arrays (4–8 bytes per agent
// per column) instead of pulling each agent's full ~200-byte User
// struct (anchors slice, device entry, …) through the cache to read a
// handful of fields.
//
// All slices are indexed by UserID and cover every SIM in the
// population (native, M2M, roamer). Values are copies: Columns is
// derived read-only data, sealed once at the end of Synthesize, shared
// safely by any number of concurrent simulators.
type Columns struct {
	HomeTower    []radio.TowerID
	HomeDistrict []census.DistrictID
	HomeCounty   []census.CountyID
	Profile      []Profile
	Cluster      []census.Cluster

	// NightOff is User.NightOff: the nightly probability the device is
	// invisible to the network.
	NightOff []float64

	// Relocates marks relocation candidates; RelocTower/RelocDistrict
	// are only meaningful where Relocates is true.
	Relocates     []bool
	RelocTower    []radio.TowerID
	RelocDistrict []census.DistrictID
}

// sealColumns (re)builds the columnar mirror from Users.
func (p *Population) sealColumns() {
	n := len(p.Users)
	c := &p.cols
	c.HomeTower = make([]radio.TowerID, n)
	c.HomeDistrict = make([]census.DistrictID, n)
	c.HomeCounty = make([]census.CountyID, n)
	c.Profile = make([]Profile, n)
	c.Cluster = make([]census.Cluster, n)
	c.NightOff = make([]float64, n)
	c.Relocates = make([]bool, n)
	c.RelocTower = make([]radio.TowerID, n)
	c.RelocDistrict = make([]census.DistrictID, n)
	for i := range p.Users {
		u := &p.Users[i]
		c.HomeTower[i] = u.HomeTower
		c.HomeDistrict[i] = u.HomeDistrict
		c.HomeCounty[i] = u.HomeCounty
		c.Profile[i] = u.Profile
		c.Cluster[i] = u.Cluster
		c.NightOff[i] = u.NightOff
		c.Relocates[i] = u.Relocates
		c.RelocTower[i] = u.RelocTower
		c.RelocDistrict[i] = u.RelocDistrict
	}
}

// Cols returns the read-only columnar mirror of the population's hot
// per-agent fields. Synthesize seals it, so concurrent calls on its
// result only read; a Population assembled by hand gets it built on
// first use, which mutates the population and so must not race with
// another call. The result aliases the population and must not be
// mutated.
func (p *Population) Cols() *Columns {
	if len(p.cols.HomeTower) != len(p.Users) {
		p.sealColumns()
	}
	return &p.cols
}
