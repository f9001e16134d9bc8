package radio

import (
	"math"

	"repro/internal/census"
	"repro/internal/geo"
	"repro/internal/rng"
)

// Environment classifies the radio propagation environment of a
// district; it selects the path-loss exponent of the log-distance model.
type Environment int

// Propagation environments.
const (
	EnvDenseUrban Environment = iota
	EnvUrban
	EnvSuburban
	EnvRural
)

// String implements fmt.Stringer.
func (e Environment) String() string {
	switch e {
	case EnvDenseUrban:
		return "dense-urban"
	case EnvUrban:
		return "urban"
	case EnvSuburban:
		return "suburban"
	default:
		return "rural"
	}
}

// EnvironmentOf derives the environment from a district's
// geodemographic cluster (dense clutter in city centres, open terrain in
// the countryside).
func EnvironmentOf(d *census.District) Environment {
	switch d.Cluster {
	case census.Cosmopolitans, census.EthnicityCentral:
		return EnvDenseUrban
	case census.MulticulturalMetropolitans, census.ConstrainedCityDwellers:
		return EnvUrban
	case census.Urbanites, census.Suburbanites, census.HardPressedLiving:
		return EnvSuburban
	default:
		return EnvRural
	}
}

// pathLossExponent returns the log-distance exponent per environment.
func pathLossExponent(e Environment) float64 {
	switch e {
	case EnvDenseUrban:
		return 3.8
	case EnvUrban:
		return 3.5
	case EnvSuburban:
		return 3.2
	default:
		return 2.9
	}
}

// Propagation constants of the simplified link budget.
const (
	// refLossDB is the path loss at the 0.1 km reference distance
	// (~2 GHz macro cell).
	refLossDB = 95.0
	refDistKm = 0.1
	// txPowerDBm is the cell's transmit power incl. antenna gain.
	txPowerDBm = 46.0
	// minServableDBm is the receive level below which a tower cannot
	// serve at all.
	minServableDBm = -125.0
	// shadowingStdDB is the log-normal shadowing deviation applied when
	// a deterministic jitter source is supplied.
	shadowingStdDB = 6.0
)

// PathLossDB returns the log-distance path loss in dB at distKm in the
// given environment. Distances below the reference are clamped.
func PathLossDB(distKm float64, env Environment) float64 {
	if distKm < refDistKm {
		distKm = refDistKm
	}
	return refLossDB + 10*pathLossExponent(env)*math.Log10(distKm/refDistKm)
}

// RxPowerDBm returns the received power from a tower at point p, with
// optional deterministic log-normal shadowing drawn from src (pass nil
// for the median link).
func (t *Topology) RxPowerDBm(tw TowerID, p geo.Point, src *rng.Source) float64 {
	tower := t.Tower(tw)
	env := EnvironmentOf(t.model.District(tower.District))
	rx := txPowerDBm - PathLossDB(tower.Loc.Dist(p), env)
	if src != nil {
		// Shadowing is keyed by the (tower, caller stream) pair so the
		// same query stream sees a stable radio map.
		rx += src.Split(uint64(tw)).NormRange(0, shadowingStdDB)
	}
	return rx
}

// reachKm bounds the reselection scan: towers farther than this from
// the query point are never candidates.
const reachKm = 20.0

// ReselectionNeighbor returns the best alternate server at p other than
// the given tower — the cell an idle phone camped at p bounces to. A
// tower is audible when its median-link level (no shadowing) reaches the
// servable floor; among the audible towers within reachKm other than
// exclude, the highest level wins and a tie goes to the lower TowerID.
// It returns exclude when no alternative is audible, and the nearest
// tower when nothing at all is audible. The towers within reachKm are
// scanned once keeping only the running best, so a call allocates
// nothing and concurrent calls share no state.
func (t *Topology) ReselectionNeighbor(p geo.Point, exclude TowerID) TowerID {
	best, bestRx := TowerID(-1), math.Inf(-1)
	heard := false
	t.grid.Each(p, reachKm, func(i int32) {
		tw := TowerID(i)
		rx := t.RxPowerDBm(tw, p, nil)
		if rx < minServableDBm {
			return
		}
		heard = true
		if tw == exclude {
			return
		}
		if rx > bestRx || (rx == bestRx && tw < best) {
			best, bestRx = tw, rx
		}
	})
	switch {
	case best >= 0:
		return best
	case heard:
		return exclude
	default:
		return t.NearestTower(p)
	}
}
